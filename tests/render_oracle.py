"""Test oracle for prompt rendering: the plain walk of a template tree.

The renderer runs on a compiled form of the template; this walk is the
definition it must match. It returns the raw text (literals as written, blanks
empty, concatenation parts joined by one space) and draws one
``rng.integers(len(options))`` per choice it meets, depth first, left to
right. ``_normalize`` of that text is the rendered string.
"""

from studyclip.prompts import Blank, Choice, Concat, ExprSlot, Literal, UnresolvedSlot


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
