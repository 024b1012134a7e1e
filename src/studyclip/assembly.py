"""A forked prefetcher: one child process fills a ring of shared slots, step by step, ahead of its caller.

``Worker(produce, rows, layout)`` runs ``produce(step)``, a ``{name: float64
array}``, for every step in order, and writes the arrays into a ring of
``SLOTS`` slots in one anonymous shared ``mmap``, each name at its ``layout``
shape. ``wait(step)`` hands the first ``rows[step]`` rows of each to the caller
as read-only views of their slot, with no copy and no unpickling;
``release()`` frees the slot once the caller is done with them.

The worker is forked with ``os.fork``, not spawned, so it reads what the caller
already holds, with no pickling and no fresh import; and it is no
``multiprocessing`` child, so it also runs inside a daemonic process such as a
pool worker. It always leaves through ``os._exit``. The ring is deeper than the
two slots a lockstep needs, because steps take uneven time to produce: the
worker banks steps while the caller is busy elsewhere or on cheap steps, and
spends that lead on the slow ones. Two semaphores count the filled and the free
slots: taking one whose slot is already filled needs no system call, and the
caller never blocks in a pipe read (pickling batches through a pipe made later
work in the caller page-fault its heap back in). The worker runs on the CPUs
the process may use other than the one the caller last ran on before the fork
(where Linux says which): left to the scheduler on a 2-CPU machine, the worker,
woken for each short step, at times shared the caller's CPU while the other
stayed idle, and single-view training ran slower than with no worker at all.

The worker hands over arrays only: an exception ends it with exit code 1, after
it prints its traceback. When it has ended and the step's slot is empty, the
caller runs ``produce(step)`` itself, so a failure of the step raises as it
would without a worker; if it returns, ``AssemblyError`` names the step and the
exit code. Leaving the ``with`` block kills the worker if it still runs, and
reaps it. Where ``os.fork`` does not exist, ``wait`` runs ``produce`` in the caller.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import traceback
from collections.abc import Callable, Mapping, Sequence

import numpy as np

# Steps in the shared ring: one read by the caller, up to SLOTS - 1 filled ahead by the worker.
# On paper_full (median train studies/s, seven seeds; three at depth 2) depth 3 gave 3,992,
# 4 gave 4,148, 6 gave 4,189 and 8 gave 4,168, against 3,649 at 2: 4 is the smallest depth
# within the run-to-run spread (~130) of the best. Each slot adds about 0.5 MB of touched pages.
SLOTS = 4
_POLL_S = 0.1  # a blocked wait checks this often that the other process is alive


class AssemblyError(RuntimeError):
    """The worker ended before it handed over the arrays of a step."""

    def __init__(self, step: int, exitcode: int):
        super().__init__(f"batch assembly worker exited with code {exitcode} before step {step}")
        self.step = step
        self.exitcode = exitcode


class Worker:
    """A forked process that writes ``produce(step)`` for each step, in order, into ``SLOTS`` shared slots.

    Entering forks it; leaving kills it if it still runs, and reaps it. Without ``os.fork`` there is none.
    """

    def __init__(self, produce: Callable[[int], Mapping[str, np.ndarray]], rows: Sequence[int], layout: Mapping):
        self.produce, self.rows = produce, rows
        self.slots = None
        if hasattr(os, "fork"):
            slot = np.dtype([(name, np.float64, shape) for name, shape in layout.items()])
            self.slots = np.frombuffer(mmap.mmap(-1, SLOTS * slot.itemsize), dtype=slot)
            ctx = multiprocessing.get_context("fork")
            self.filled, self.free = ctx.Semaphore(0), ctx.Semaphore(SLOTS)
        self.pid: int | None = None
        self.exitcode: int | None = None

    def poll(self) -> int | None:
        """The worker's exit code once it has ended, ``-signum`` if a signal ended it; else None."""
        if self.exitcode is None and self.pid is not None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode

    def wait(self, step: int) -> Mapping[str, np.ndarray]:
        """The arrays of ``step``, as read-only views of the slot the worker filled: waits for it.

        The caller frees the slot (``release``) once it is done with the views. Without a worker,
        or once it has ended without filling the slot, ``produce(step)`` runs here: a failure of
        the step raises, and if it returns, ``AssemblyError`` names the step.
        """
        if self.slots is None:
            return self.produce(step)
        while not self.filled.acquire(timeout=_POLL_S):
            exitcode = self.poll()
            if exitcode is not None and not self.filled.acquire(block=False):
                self.produce(step)  # a failure of the step's own inputs raises here
                raise AssemblyError(step, exitcode)
        n = self.rows[step]
        return {name: self.slots[name][step % SLOTS, :n] for name in self.slots.dtype.names}

    def release(self) -> None:
        """Frees the slot of the step just read, for the worker to fill."""
        if self.slots is not None:
            self.free.release()

    def _run(self, parent: int, parent_cpu: int | None) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller takes an interrupt and ends the worker
        others = set() if parent_cpu is None else os.sched_getaffinity(0) - {parent_cpu}
        if others:
            os.sched_setaffinity(0, others)  # off the caller's CPU: see the module docstring
        for step in range(len(self.rows)):
            while not self.free.acquire(timeout=_POLL_S):
                if os.getppid() != parent:
                    return  # the caller is gone
            for name, view in self.produce(step).items():
                self.slots[name][step % SLOTS, : len(view)] = view
            self.filled.release()

    def __enter__(self) -> "Worker":
        if self.slots is not None:
            parent, parent_cpu = os.getpid(), _current_cpu()
            self.pid = os.fork()
            if self.pid == 0:  # the worker: it leaves through os._exit, never into the caller's frames
                code = 1
                try:
                    self._run(parent, parent_cpu)
                    code = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            self.slots.flags.writeable = False  # the caller only reads the slots
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None and self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)
            self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _current_cpu() -> int | None:
    """The CPU this process last ran on, where the system says (Linux), else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    except (OSError, IndexError, ValueError):
        return None
