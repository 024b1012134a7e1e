"""Test oracle for prompt rendering: the plain walk of a template tree.

The renderer and the enumeration run on a compiled form of the template; these
walks are the definitions they must match. ``reference_walk`` returns the raw
text (literals as written, blanks empty, concatenation parts joined by one
space) and draws one ``rng.integers(len(options))`` per choice it meets, depth
first, left to right. ``_normalize`` of that text is the rendered string.
``reference_expansions`` takes every option of every choice instead: the
product of the parts' raw texts, each normalized.
"""

import itertools

from studyclip.prompts import Blank, Choice, Concat, ExprSlot, Literal, UnresolvedSlot, _normalize


def reference_walk(t, rng) -> str:
    if isinstance(t, Literal):
        return t.text
    if isinstance(t, Blank):
        return ""
    if isinstance(t, Choice):
        return reference_walk(t.options[int(rng.integers(len(t.options)))], rng)
    if isinstance(t, Concat):
        return " ".join(reference_walk(p, rng) for p in t.parts)
    if isinstance(t, ExprSlot):
        raise UnresolvedSlot("template has an unresolved {E} slot")
    raise TypeError(f"not a template node: {t!r}")


def reference_expansions(t) -> set[str]:
    return {_normalize(raw) for raw in _raw_expansions(t)}


def _raw_expansions(t):
    if isinstance(t, Literal):
        yield t.text
    elif isinstance(t, Blank):
        yield ""
    elif isinstance(t, Choice):
        for option in t.options:
            yield from _raw_expansions(option)
    elif isinstance(t, Concat):
        for combo in itertools.product(*(list(_raw_expansions(p)) for p in t.parts)):
            yield " ".join(combo)
    elif isinstance(t, ExprSlot):
        raise UnresolvedSlot("template has an unresolved {E} slot")
    else:
        raise TypeError(f"not a template node: {t!r}")
