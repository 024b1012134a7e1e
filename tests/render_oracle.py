"""Test oracle for prompt rendering: the plain walk of a template's source tree.

The tests build a grammar source string together with the tree it spells, so
this oracle never reads the parser's output. A tree is a ``str`` (a literal as
written; a blank is ``""``), ``("choice", options)`` or ``("concat", parts)``,
with any {E} slot already replaced by the expression's tree. These walks are
the definitions the parsed form must match. ``reference_walk`` returns the raw
text (literals as written, blanks empty, concatenation parts joined by one
space) and draws one ``rng.integers(len(options))`` per choice it meets, depth
first, left to right. ``_normalize`` of that text is the rendered string.
``reference_expansions`` takes every option of every choice instead: the
product of the parts' raw texts, each normalized.
"""

import itertools

from studyclip.prompts import _normalize


def reference_walk(tree, rng) -> str:
    if isinstance(tree, str):
        return tree
    kind, children = tree
    if kind == "choice":
        return reference_walk(children[int(rng.integers(len(children)))], rng)
    return " ".join(reference_walk(part, rng) for part in children)


def reference_expansions(tree) -> set[str]:
    return {_normalize(raw) for raw in _raw_expansions(tree)}


def _raw_expansions(tree):
    if isinstance(tree, str):
        yield tree
        return
    kind, children = tree
    if kind == "choice":
        for option in children:
            yield from _raw_expansions(option)
    else:
        for combo in itertools.product(*(list(_raw_expansions(part)) for part in children)):
            yield " ".join(combo)
