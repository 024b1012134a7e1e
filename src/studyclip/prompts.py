"""Template grammar for generating clinical-style sentences from class labels.

Grammar syntax (used inside the shipped ``prompts.grammar`` file):

    [a, b, c]   uniform choice between alternatives
    x + y       concatenation, joined with a single space
    ( )         blank (empty string) branch
    {E}         slot filled with a per-class expression

Adjacent atoms inside one alternative concatenate the same way ``+`` does;
rendered strings are whitespace-normalized (single spaces, no space before
punctuation) with capitalization kept exactly as written in the templates.

A template has one form, built by the parser as it reads the source: a literal
is its normalized text (each literal is normalized once, when parsed), a blank
the empty string, a choice a tuple of its options (a choice of one option,
that option) and a concatenation a flat list of its non-empty parts, with
nested lists spliced in and adjacent strings pre-joined (``_concat``). A
``{E}`` slot parses to a sentinel that is filled before any caller sees the
form: ``parse_template`` fills it from its ``expr`` argument and
``PromptEngine.from_path`` from the class's expression entry.

Rendering (``expand_template``) draws one index per choice of two or more
options met, from the ``integers`` method of whichever generator it is given
(a numpy ``Generator``, or a study's ``sampling.StudyDraws`` in batch
assembly), depth first and left to right, as a walk of the source tree would
(a walk's draw for a one-option choice, ``integers(1)``, consumes nothing from
either), then joins the picked pieces with one space between non-empty pieces
and none before a piece that starts with punctuation. That join gives exactly
the normalization of the space-joined raw text, so no regex runs per render.
Enumeration (``enumerate_expansions``) takes every option of every choice and
joins each path's pieces the same way, so a prompt set holds exactly the
strings a render can give.

The grammar file carries one entry per line, ``kind|name|polarity|template``,
where kind is ``template`` or ``expr`` and polarity is ``positive``,
``negative`` or ``both``. Classes without a class-specific template fall back
to the ``default`` template of the requested polarity. ``from_path`` parses
each line once and fills every (class, polarity) from those parsed forms, so
the engine holds one finished form per (class, value). The default templates
serve most classes; filling their parsed form per class costs a fraction of
parsing their source again. An entry that could never render (a template slot
with no expression, an expression holding ``{E}``, an expression with no
template to go in) and a line that does not parse are grammar errors raised by
``from_path``, naming the file and the line or the class.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sampling import Draws

POSITIVE = "positive"
NEGATIVE = "negative"
LABEL_VALUES = (POSITIVE, NEGATIVE, "uncertain", "none")


class TemplateSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnresolvedSlot(KeyError):
    """A {E} slot was found where no class expression can fill it."""


class ExplosionError(RuntimeError):
    """Expansion set exceeds the requested cap."""


class NoTemplateError(LookupError):
    """No prompt set exists for the requested (class, value)."""


class UnsupportedValue(ValueError):
    """Prompts exist only for positive and negative label values."""


class EmptyLabelSet(ValueError):
    """No class in the label record produced a prompt."""


# ---------------------------------------------------------------- templates

# a template: str (normalized text), tuple (choice options), list (concatenated parts)
Form = str | tuple | list

_SLOT = object()  # a {E} slot, until filled
_PUNCTUATION = ".,;:!?"


def _normalize(text: str) -> str:
    text = re.sub(r"\s+", " ", text).strip()
    return re.sub(rf"\s+([{_PUNCTUATION}])", r"\1", text)


def parse_template(source: str, expr: str | None = None) -> Form:
    """The form of ``source``, each {E} slot filled with the form of ``expr``.

    Raises UnresolvedSlot when ``source`` has a slot and ``expr`` is None, or
    when ``expr`` holds a slot.
    """
    return _fill(_parse(source), None if expr is None else _fill(_parse(expr), None))


def _parse(source: str) -> Form:
    """The form of ``source``, its {E} slots left as the sentinel."""
    node, pos = _parse_sequence(source, 0, in_choice=False)
    if pos != len(source):
        raise TemplateSyntaxError(f"unexpected {source[pos]!r}", pos)
    return node


def _parse_sequence(s: str, i: int, in_choice: bool):
    """Parse atoms and '+' separators up to ',' / ']' (inside a choice) or EOS."""
    atoms: list[Form] = []
    buf: list[str] = []
    seen_plus_at = -1

    def flush():
        text = "".join(buf).strip()
        buf.clear()
        if text:
            atoms.append(_normalize(text))

    while i < len(s):
        c = s[i]
        if c == "[":
            flush()
            node, i = _parse_choice(s, i + 1)
            atoms.append(node)
        elif c == "]" or c == ",":
            if in_choice:
                break
            if c == "]":
                raise TemplateSyntaxError("unbalanced ']'", i)
            buf.append(c)
            i += 1
        elif c == "+":
            flush()
            if not atoms:
                raise TemplateSyntaxError("'+' with nothing before it", i)
            seen_plus_at = i
            i += 1
        elif c == "{":
            if s.startswith("{E}", i):
                flush()
                atoms.append(_SLOT)
                i += 3
            else:
                raise TemplateSyntaxError("expected '{E}'", i)
        elif c == "}":
            raise TemplateSyntaxError("unbalanced '}'", i)
        elif c == "(" and s.startswith("( )", i):
            flush()
            atoms.append("")
            i += 3
        else:
            buf.append(c)
            i += 1
    flush()
    if not atoms:
        raise TemplateSyntaxError("empty template fragment", i)
    if seen_plus_at >= 0 and len(atoms) < 2:
        raise TemplateSyntaxError("'+' with nothing after it", seen_plus_at)
    return _concat(atoms), i


def _parse_choice(s: str, i: int):
    options: list[Form] = []
    while True:
        node, i = _parse_sequence(s, i, in_choice=True)
        options.append(node)
        if i >= len(s):
            raise TemplateSyntaxError("unterminated choice", i)
        if s[i] == ",":
            i += 1
            continue
        if s[i] == "]":
            # a one-option choice is its option: its draw, integers(1), consumes nothing
            return (tuple(options) if len(options) > 1 else options[0]), i + 1
        raise TemplateSyntaxError(f"unexpected {s[i]!r} in choice", i)


def _concat(parts) -> Form:
    """The concatenation of ``parts``: nested lists spliced in, blanks dropped and
    adjacent strings joined; a single remaining part is returned as itself."""
    out: list = []
    for part in parts:
        for piece in part if type(part) is list else (part,):
            if type(piece) is str and out and type(out[-1]) is str:
                out[-1] = _join((out[-1], piece))
            elif piece != "":
                out.append(piece)
    if len(out) < 2:
        return out[0] if out else ""
    return out


def _fill(node: Form, expr: Form | None) -> Form:
    """``node`` with each {E} slot replaced by ``expr``; a slot raises UnresolvedSlot
    when ``expr`` is None."""
    if node is _SLOT:
        if expr is None:
            raise UnresolvedSlot("template has a {E} slot but no class expression fills it")
        return expr
    if type(node) is tuple:
        return tuple(_fill(option, expr) for option in node)
    if type(node) is list:
        return _concat([_fill(part, expr) for part in node])
    return node


def _join(pieces) -> str:
    """``_normalize`` of normalized pieces joined by spaces: one space between
    non-empty pieces, none before a piece that starts with punctuation."""
    out: list[str] = []
    for piece in pieces:
        if piece:
            if out and piece[0] not in _PUNCTUATION:
                out.append(" ")
            out.append(piece)
    return "".join(out)


def _pick(node: Form, rng, out: list[str]) -> None:
    """Append the pieces of one expansion, drawing one index per choice, depth first.

    A choice is indexed in the frame that meets it and a literal part appended
    without a call; only a concatenation reached through a choice recurses.
    """
    while type(node) is tuple:
        node = node[int(rng.integers(len(node)))]
    if type(node) is str:
        out.append(node)
        return
    for part in node:
        if type(part) is str:
            out.append(part)
        else:
            _pick(part, rng, out)


def expand_template(node: Form, rng: Draws) -> str:
    """One random expansion: each choice sampled uniformly, output normalized."""
    pieces: list[str] = []
    _pick(node, rng, pieces)
    return _join(pieces)


def enumerate_expansions(node: Form, cap: int = 100_000) -> set[str]:
    """Complete expansion set (normalized, deduplicated); ExplosionError beyond cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    out: set[str] = set()
    for text in _expansions(node):
        out.add(text)
        if len(out) > cap:
            raise ExplosionError(f"expansion set exceeds cap {cap}")
    return out


def _expansions(node: Form):
    """Every render of ``node``, one per path through its choices, joined as ``expand_template`` joins."""
    if type(node) is str:
        yield node
    elif type(node) is tuple:
        for option in node:
            yield from _expansions(option)
    else:
        for pieces in itertools.product(*(set(_expansions(part)) for part in node)):
            yield _join(pieces)


# -------------------------------------------------------------- prompt engine


@dataclass
class PromptEngine:
    """Parsed grammar: one slot-free form per (class, value)."""

    prompts: dict[tuple[str, str], Form]
    classes: list[str] = field(init=False)

    def __post_init__(self):
        self.classes = sorted({name for name, _ in self.prompts})

    # -- loading

    @classmethod
    def from_path(cls, path: str | Path) -> "PromptEngine":
        text = Path(path).read_text(encoding="utf-8")
        templates: dict[tuple[str, str], Form] = {}
        expressions: dict[tuple[str, str], Form] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|", 3)
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected kind|name|polarity|template")
            kind, name, polarity = (f.strip() for f in fields[:3])
            if kind not in ("template", "expr"):
                raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
            if polarity not in (POSITIVE, NEGATIVE, "both"):
                raise ValueError(f"{path}:{lineno}: unknown polarity {polarity!r}")
            try:
                form = _parse(fields[3])
            except TemplateSyntaxError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
            target = templates if kind == "template" else expressions
            pols = (POSITIVE, NEGATIVE) if polarity == "both" else (polarity,)
            for pol in pols:
                key = (name, pol)
                if key in target:
                    raise ValueError(f"{path}:{lineno}: duplicate entry for {key}")
                target[key] = form
        prompts: dict[tuple[str, str], Form] = {}
        for name, pol in sorted({k for k in templates if k[0] != "default"} | set(expressions)):
            where = f"{path}: class {name!r}, {pol}"
            template = templates.get((name, pol), templates.get(("default", pol)))
            if template is None:
                raise ValueError(f"{where}: no class template and no default {pol} template")
            expr = expressions.get((name, pol))
            try:
                prompts[(name, pol)] = _fill(template, expr if expr is None else _fill(expr, None))
            except UnresolvedSlot:
                problem = "the expression holds" if expr is not None else "no expression fills"
                raise ValueError(f"{where}: {problem} a {{E}} slot") from None
        return cls(prompts)

    @classmethod
    def default(cls) -> "PromptEngine":
        """An engine over the shipped grammar, parsed once per process: it owns its dict, but its forms are shared."""
        return cls(dict(_default_prompts()))

    # -- rendering

    def _prompt(self, class_name: str, value: str) -> Form:
        """The form of (class, value)."""
        try:
            return self.prompts[(class_name, value)]
        except KeyError:
            if value not in (POSITIVE, NEGATIVE):
                raise UnsupportedValue(f"prompts exist only for positive/negative, got {value!r}") from None
            raise NoTemplateError(f"no prompt set for ({class_name!r}, {value!r})") from None

    def render_prompt(self, class_name: str, value: str, rng: Draws) -> str:
        return expand_template(self._prompt(class_name, value), rng)

    def prompt_set(self, class_name: str, value: str) -> frozenset[str]:
        return frozenset(enumerate_expansions(self._prompt(class_name, value)))

    def build_study_text(self, labels: dict[str, str], rng: Draws) -> str:
        """One prompt per labeled class, joined in a seeded random order.

        Classes valued uncertain/none are skipped, as are negatives without a
        negative prompt form.
        """
        positives = sorted(c for c, v in labels.items() if v == POSITIVE)
        negatives = sorted(
            c for c, v in labels.items() if v == NEGATIVE and (c, NEGATIVE) in self.prompts
        )
        included = [(c, POSITIVE) for c in positives] + [(c, NEGATIVE) for c in negatives]
        if not included:
            raise EmptyLabelSet("no class in the label record produced a prompt")
        order = rng.permutation(len(included))
        sentences = [self.render_prompt(*included[int(i)], rng) for i in order]
        return " ".join(sentences)

    def eval_prompt_pair(self, class_name: str, style: str = "simple") -> tuple[str, str]:
        """Fixed positive/negative prompt pair used by zero-shot evaluation."""
        if not class_name:
            raise ValueError("class name must be non-empty")
        if style == "simple":
            return class_name, f"No {class_name}"
        if style == "rsna":
            return "Findings suggesting pneumonia.", "No evidence of pneumonia."
        raise ValueError(f"unknown evaluation prompt style {style!r}")


@functools.cache
def _default_prompts() -> dict[tuple[str, str], Form]:
    return PromptEngine.from_path(str(resources.files("studyclip").joinpath("data/prompts.grammar"))).prompts
