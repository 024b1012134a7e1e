"""The forked prefetcher on its own: fake step arrays, no studies."""

import os

import numpy as np
import pytest

from studyclip.assembly import SLOTS, AssemblyError, Worker

ROWS = [3, 1, 2, 3, 3, 2, 1]  # more steps than slots, some short
LAYOUT = {"a": (3, 2), "b": (3,)}


def produce(step: int) -> dict[str, np.ndarray]:
    return {"a": np.full((ROWS[step], 2), step + 0.5), "b": np.arange(ROWS[step]) * 10.0 + step}


def contents(arrays) -> list:
    return [(name, x.shape, x.tobytes()) for name, x in arrays.items()]


def receive(worker: Worker, steps: int) -> list:
    """The contents and writeable flags of each step's arrays, read in order, each slot released after."""
    out = []
    for step in range(steps):
        arrays = worker.wait(step)
        out.append((contents(arrays), {x.flags.writeable for x in arrays.values()}))
        worker.release()
    return out


def test_steps_arrive_in_order_as_read_only_views_of_their_rows():
    assert len(ROWS) > SLOTS
    with Worker(produce, ROWS, LAYOUT) as worker:
        got = receive(worker, len(ROWS))
    assert worker.exitcode is not None  # ended and reaped
    assert got == [(contents(produce(step)), {False}) for step in range(len(ROWS))]


def test_without_fork_wait_produces_the_same_arrays_in_the_caller(monkeypatch):
    with Worker(produce, ROWS, LAYOUT) as worker:
        forked = receive(worker, len(ROWS))
    monkeypatch.delattr(os, "fork")
    with Worker(produce, ROWS, LAYOUT) as worker:
        in_caller = receive(worker, len(ROWS))
    assert worker.pid is None
    assert [c for c, _ in in_caller] == [c for c, _ in forked]
    assert {w for _, flags in in_caller for w in flags} == {True}  # produce's own arrays, not slot views


@pytest.mark.parametrize("k", [0, SLOTS + 1])
def test_a_worker_whose_produce_exits_at_a_step_makes_wait_raise_assembly_error_naming_it(k):
    main = os.getpid()

    def exiting(step: int) -> dict[str, np.ndarray]:
        if step == k and os.getpid() != main:
            os._exit(3)
        return produce(step)

    with Worker(exiting, ROWS, LAYOUT) as worker:
        receive(worker, k)
        with pytest.raises(AssemblyError, match=rf"exited with code 3 before step {k}$") as err:
            worker.wait(k)
    assert (err.value.step, err.value.exitcode) == (k, 3)


def test_a_step_that_fails_everywhere_raises_its_own_error_from_wait():
    def failing(step: int) -> dict[str, np.ndarray]:
        if step == 2:
            raise ValueError("step 2 cannot be produced")
        return produce(step)

    with Worker(failing, ROWS, LAYOUT) as worker:
        receive(worker, 2)
        with pytest.raises(ValueError, match="step 2 cannot be produced"):
            worker.wait(2)
