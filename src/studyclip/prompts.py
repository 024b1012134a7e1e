"""Template grammar for generating clinical-style sentences from class labels.

Grammar syntax (used inside the shipped ``prompts.grammar`` file):

    [a, b, c]   uniform choice between alternatives
    x + y       concatenation, joined with a single space
    ( )         blank (empty string) branch
    {E}         slot resolved against a per-class expression template

Adjacent atoms inside one alternative concatenate the same way ``+`` does;
rendered strings are whitespace-normalized (single spaces, no space before
punctuation) with capitalization kept exactly as written in the templates.

A render, and the enumeration of a prompt set, run on a compiled form of the
template (``_compile``): each literal is normalized once, at compile time,
blanks become empty strings, a choice becomes a tuple of its options (a
choice of one option, that option) and a concatenation a flat list of its
parts, with adjacent literals pre-joined.
Rendering draws one index per choice of two or more options met, from the
``integers`` method of whichever generator it is given (a numpy
``Generator``, or a study's ``sampling.StudyDraws`` in batch assembly), depth
first and left to right, as a walk of the tree would (a walk's draw for a
one-option choice, ``integers(1)``, consumes nothing from either), then
joins the picked pieces with one space between non-empty pieces and none
before a piece that starts with punctuation. That join gives exactly the
normalization of the space-joined raw text, so no regex runs per render.
Enumeration takes every option of every choice and joins each path's pieces
the same way, so a prompt set holds exactly the strings a render can give.

The grammar file carries one entry per line, ``kind|name|polarity|template``,
where kind is ``template`` or ``expr`` and polarity is ``positive``,
``negative`` or ``both``. Classes without a class-specific template fall back
to the ``default`` template of the requested polarity. Every ``{E}`` slot is
resolved when the grammar loads, against the class's ``expr`` entry of that
polarity, so the engine holds one finished template per (class, value), and
compiles each once. An entry that could never render (a template slot with no
expression, an expression holding ``{E}``, an expression with no template to
go in) is a grammar error raised by ``PromptEngine.from_path``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

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


# ------------------------------------------------------------------ AST nodes


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Blank:
    pass


@dataclass(frozen=True)
class ExprSlot:
    pass


@dataclass(frozen=True)
class Choice:
    options: tuple

    def __post_init__(self):
        if not self.options:
            raise TemplateSyntaxError("choice list must be non-empty", 0)


@dataclass(frozen=True)
class Concat:
    parts: tuple


Template = Literal | Blank | ExprSlot | Choice | Concat
# compiled form: str (normalized text), tuple (choice options), list (concatenated parts)
Compiled = str | tuple | list

_PUNCTUATION = ".,;:!?"


def _normalize(text: str) -> str:
    text = re.sub(r"\s+", " ", text).strip()
    return re.sub(rf"\s+([{_PUNCTUATION}])", r"\1", text)


def parse_template(source: str) -> Template:
    """Parse grammar syntax into an expression tree (round-trips via serialize_template)."""
    node, pos = _parse_sequence(source, 0, in_choice=False)
    if pos != len(source):
        raise TemplateSyntaxError(f"unexpected {source[pos]!r}", pos)
    return node


def _parse_sequence(s: str, i: int, in_choice: bool):
    """Parse atoms and '+' separators up to ',' / ']' (inside a choice) or EOS."""
    atoms: list[Template] = []
    buf: list[str] = []
    seen_plus_at = -1

    def flush():
        text = "".join(buf).strip()
        buf.clear()
        if text:
            atoms.append(Literal(text))

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
                atoms.append(ExprSlot())
                i += 3
            else:
                raise TemplateSyntaxError("expected '{E}'", i)
        elif c == "}":
            raise TemplateSyntaxError("unbalanced '}'", i)
        elif c == "(" and s.startswith("( )", i):
            flush()
            atoms.append(Blank())
            i += 3
        else:
            buf.append(c)
            i += 1
    flush()
    if not atoms:
        raise TemplateSyntaxError("empty template fragment", i)
    if seen_plus_at >= 0 and len(atoms) < 2:
        raise TemplateSyntaxError("'+' with nothing after it", seen_plus_at)
    if len(atoms) == 1:
        return atoms[0], i
    return Concat(tuple(atoms)), i


def _parse_choice(s: str, i: int):
    options: list[Template] = []
    while True:
        node, i = _parse_sequence(s, i, in_choice=True)
        options.append(node)
        if i >= len(s):
            raise TemplateSyntaxError("unterminated choice", i)
        if s[i] == ",":
            i += 1
            continue
        if s[i] == "]":
            return Choice(tuple(options)), i + 1
        raise TemplateSyntaxError(f"unexpected {s[i]!r} in choice", i)


def serialize_template(t: Template) -> str:
    """Canonical grammar-syntax form; parse(serialize(parse(s))) == parse(s)."""
    if isinstance(t, Literal):
        return t.text
    if isinstance(t, Blank):
        return "( )"
    if isinstance(t, ExprSlot):
        return "{E}"
    if isinstance(t, Choice):
        return "[" + ", ".join(serialize_template(o) for o in t.options) + "]"
    if isinstance(t, Concat):
        return " + ".join(serialize_template(p) for p in t.parts)
    raise TypeError(f"not a template node: {t!r}")


def resolve_slots(t: Template, expr: Template | None) -> Template:
    """``t`` with every {E} slot replaced by ``expr``; a slot raises UnresolvedSlot
    when ``expr`` is None or holds a slot itself."""
    if isinstance(t, ExprSlot):
        if expr is None:
            raise UnresolvedSlot("template has a {E} slot but no class expression was given")
        return resolve_slots(expr, None)
    if isinstance(t, Choice):
        return Choice(tuple(resolve_slots(o, expr) for o in t.options))
    if isinstance(t, Concat):
        return Concat(tuple(resolve_slots(p, expr) for p in t.parts))
    return t


def _compile(t: Template, normalized: dict[str, str]) -> Compiled:
    """Flat render form of a slot-free template; a {E} slot raises UnresolvedSlot.

    A literal becomes its normalized text and a blank the empty string, a
    choice a tuple of its compiled options, and a concatenation a list of its
    non-empty parts, with nested lists spliced in and adjacent strings
    pre-joined. A choice of one option becomes that option: its draw,
    ``rng.integers(1)``, would consume nothing from the generator.
    ``normalized`` maps each literal text seen so far to its normalized form:
    the resolved templates of one grammar repeat each class expression, so its
    literals recur.
    """
    if isinstance(t, Literal):
        if t.text not in normalized:
            normalized[t.text] = _normalize(t.text)
        return normalized[t.text]
    if isinstance(t, Blank):
        return ""
    if isinstance(t, Choice):
        options = tuple(_compile(o, normalized) for o in t.options)
        return options if len(options) > 1 else options[0]
    if isinstance(t, Concat):
        parts: list = []
        for part in t.parts:
            compiled = _compile(part, normalized)
            for piece in compiled if isinstance(compiled, list) else (compiled,):
                if isinstance(piece, str) and parts and isinstance(parts[-1], str):
                    parts[-1] = _join((parts[-1], piece))
                elif piece != "":
                    parts.append(piece)
        if len(parts) < 2:
            return parts[0] if parts else ""
        return parts
    if isinstance(t, ExprSlot):
        raise UnresolvedSlot("template has an unresolved {E} slot")
    raise TypeError(f"not a template node: {t!r}")


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


def _pick(node: Compiled, rng, out: list[str]) -> None:
    """Append the pieces of one expansion, drawing one index per choice, depth first."""
    if type(node) is str:
        out.append(node)
    elif type(node) is tuple:
        _pick(node[int(rng.integers(len(node)))], rng, out)
    else:
        for part in node:
            _pick(part, rng, out)


def _render(node: Compiled, rng) -> str:
    pieces: list[str] = []
    _pick(node, rng, pieces)
    return _join(pieces)


def expand_template(t: Template, rng: np.random.Generator) -> str:
    """One random expansion: each choice node sampled uniformly, output normalized.

    A {E} slot anywhere in ``t`` raises UnresolvedSlot, whichever branch is drawn.
    """
    return _render(_compile(t, {}), rng)


def enumerate_expansions(t: Template, cap: int = 100_000) -> set[str]:
    """Complete expansion set (normalized, deduplicated); ExplosionError beyond cap."""
    return _enumerate(_compile(t, {}), cap)


def _enumerate(node: Compiled, cap: int) -> set[str]:
    if cap < 1:
        raise ValueError("cap must be >= 1")
    out: set[str] = set()
    for text in _expansions(node):
        out.add(text)
        if len(out) > cap:
            raise ExplosionError(f"expansion set exceeds cap {cap}")
    return out


def _expansions(node: Compiled):
    """Every render of ``node``, one per path through its choices, joined as ``_render`` joins."""
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
    """Parsed grammar: one slot-free template per (class, value), and its compiled form."""

    prompts: dict[tuple[str, str], Template]
    classes: list[str] = field(init=False)
    compiled: dict[tuple[str, str], Compiled] = field(init=False, repr=False)

    def __post_init__(self):
        self.classes = sorted({name for name, _ in self.prompts})
        normalized: dict[str, str] = {}
        self.compiled = {key: _compile(t, normalized) for key, t in self.prompts.items()}

    # -- loading

    @classmethod
    def from_path(cls, path: str | Path) -> "PromptEngine":
        text = Path(path).read_text(encoding="utf-8")
        templates: dict[tuple[str, str], Template] = {}
        expressions: dict[tuple[str, str], Template] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|", 3)
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected kind|name|polarity|template")
            kind, name, polarity = (f.strip() for f in fields[:3])
            source = fields[3]
            if kind not in ("template", "expr"):
                raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
            if polarity not in (POSITIVE, NEGATIVE, "both"):
                raise ValueError(f"{path}:{lineno}: unknown polarity {polarity!r}")
            tree = parse_template(source)
            target = templates if kind == "template" else expressions
            pols = (POSITIVE, NEGATIVE) if polarity == "both" else (polarity,)
            for pol in pols:
                key = (name, pol)
                if key in target:
                    raise ValueError(f"{path}:{lineno}: duplicate entry for {key}")
                target[key] = tree
        prompts: dict[tuple[str, str], Template] = {}
        for name, pol in sorted({k for k in templates if k[0] != "default"} | set(expressions)):
            where = f"{path}: class {name!r}, {pol}"
            template = templates.get((name, pol), templates.get(("default", pol)))
            if template is None:
                raise ValueError(f"{where}: no class template and no default {pol} template")
            expr = expressions.get((name, pol))
            try:
                prompts[(name, pol)] = resolve_slots(template, expr)
                if expr is not None:
                    resolve_slots(expr, None)
            except UnresolvedSlot:
                problem = "the expression holds" if expr is not None else "no expression fills"
                raise ValueError(f"{where}: {problem} a {{E}} slot") from None
        return cls(prompts)

    @classmethod
    def default(cls) -> "PromptEngine":
        return cls.from_path(str(resources.files("studyclip").joinpath("data/prompts.grammar")))

    # -- rendering

    def _prompt(self, class_name: str, value: str) -> Compiled:
        """The compiled template of (class, value)."""
        try:
            return self.compiled[(class_name, value)]
        except KeyError:
            if value not in (POSITIVE, NEGATIVE):
                raise UnsupportedValue(f"prompts exist only for positive/negative, got {value!r}") from None
            raise NoTemplateError(f"no prompt set for ({class_name!r}, {value!r})") from None

    def render_prompt(self, class_name: str, value: str, rng: Draws) -> str:
        return _render(self._prompt(class_name, value), rng)

    def prompt_set(self, class_name: str, value: str, cap: int = 100_000) -> frozenset[str]:
        return frozenset(_enumerate(self._prompt(class_name, value), cap))

    def build_study_text(
        self,
        labels: dict[str, str],
        rng: Draws,
        negative_sample_count: int | None = None,
    ) -> str:
        """One prompt per labeled class, joined in a seeded random order.

        Classes valued uncertain/none are skipped, as are negatives without a
        negative prompt form. With negative_sample_count set (binary-label
        mode) all positives are kept and that many negatives are sampled.
        """
        positives = sorted(c for c, v in labels.items() if v == POSITIVE)
        negatives = sorted(
            c for c, v in labels.items() if v == NEGATIVE and (c, NEGATIVE) in self.prompts
        )
        if negative_sample_count is not None:
            k = min(negative_sample_count, len(negatives))
            if k < len(negatives):
                chosen = rng.choice(len(negatives), size=k, replace=False)
                negatives = [negatives[i] for i in sorted(int(j) for j in chosen)]
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
