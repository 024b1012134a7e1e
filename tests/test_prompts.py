import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from render_oracle import reference_walk
from studyclip.prompts import (
    Blank,
    Choice,
    Concat,
    EmptyLabelSet,
    ExplosionError,
    ExprSlot,
    Literal,
    NoTemplateError,
    PromptEngine,
    TemplateSyntaxError,
    UnresolvedSlot,
    UnsupportedValue,
    _compile,
    _normalize,
    enumerate_expansions,
    expand_template,
    parse_template,
    resolve_slots,
    serialize_template,
)

# Classes that render through the default templates via an expression entry.
EXPRESSION_CLASSES = [
    "Atelectasis",
    "Consolidation",
    "Edema",
    "Emphysema",
    "Fibrosis",
    "Fracture",
    "Hernia",
    "Infiltration",
    "Lung Lesion",
    "Lung Opacity",
    "Mass",
    "Nodule",
    "Pleural Effusion",
    "Pleural Other",
    "Pleural Thickening",
    "Pneumonia",
    "Pneumothorax",
    "Support Devices",
]


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


# --------------------------------------------------------------------- parser


def test_parse_two_way_choice():
    assert parse_template("[A, B]") == Choice((Literal("A"), Literal("B")))


def test_parse_concat_with_blank_branch():
    assert parse_template("X + [Y, ( )]") == Concat(
        (Literal("X"), Choice((Literal("Y"), Blank())))
    )


def test_parse_slot_inline():
    assert parse_template("no {E}.") == Concat((Literal("no"), ExprSlot(), Literal(".")))


def test_default_negative_enumeration_includes_there_is_no(engine):
    expansions = enumerate_expansions(engine.prompts[("Pneumonia", "negative")])
    assert "There is no Pneumonia." in expansions


@pytest.mark.parametrize(
    "source",
    [
        "[A, B]",
        "X + [Y, ( )]",
        "no {E}.",
        "[[a, b] c, d] + e.",
        "[( ), pulmonary] + [scar, scarring]",
    ],
)
def test_serializer_round_trip(source):
    tree = parse_template(source)
    assert parse_template(serialize_template(tree)) == tree


@pytest.mark.parametrize("bad", ["[A, B", "a ] b", "{X}", "[]", "[a, ]", "a + ", "+ a"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template(bad)
    assert "position" in str(err.value)


# ------------------------------------------------------------------ expansion


def test_expand_deterministic_under_seed(engine):
    template = engine.prompts[("Pneumothorax", "positive")]
    a = expand_template(template, np.random.default_rng(123))
    b = expand_template(template, np.random.default_rng(123))
    assert a == b


def test_expand_unresolved_slot():
    with pytest.raises(UnresolvedSlot):
        expand_template(parse_template("no {E}."), np.random.default_rng(0))
    # the slot is found when the template compiles, whichever branch a draw would take
    with pytest.raises(UnresolvedSlot):
        expand_template(parse_template("[a, no {E}.]"), np.random.default_rng(0))
    with pytest.raises(UnresolvedSlot):
        enumerate_expansions(parse_template("[a, no {E}.]"))


def test_resolve_slots_substitutes_expression_tree():
    expr = parse_template("[x, y]")
    resolved = resolve_slots(parse_template("[no {E}., {E} seen.]"), expr)
    assert resolved == parse_template("[no [x, y]., [x, y] seen.]")
    assert enumerate_expansions(resolved) == {"no x.", "no y.", "x seen.", "y seen."}
    with pytest.raises(UnresolvedSlot):
        resolve_slots(parse_template("no {E}."), None)
    with pytest.raises(UnresolvedSlot):
        resolve_slots(parse_template("no {E}."), parse_template("[a, {E}]"))


def test_enumerate_product_count():
    tree = parse_template("[a, b] + [x, y, z]")
    assert enumerate_expansions(tree) == {
        "a x", "a y", "a z", "b x", "b y", "b z",
    }


def test_enumerate_cap_explosion():
    tree = parse_template("[a, b] + [x, y, z]")
    with pytest.raises(ExplosionError):
        enumerate_expansions(tree, cap=5)


def test_cardiomegaly_positive_has_exactly_20_expansions(engine):
    assert len(engine.prompt_set("Cardiomegaly", "positive")) == 20


def test_sampled_expansion_always_in_enumerated_set(engine):
    rng = np.random.default_rng(7)
    for class_name in ("Cardiomegaly", "Fibrosis", "Lung Lesion"):
        for value in ("positive", "negative"):
            sentences = engine.prompt_set(class_name, value)
            for _ in range(500):
                assert engine.render_prompt(class_name, value, rng) in sentences


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_whitespace_normalized(engine, seed):
    rng = np.random.default_rng(seed)
    out = engine.render_prompt("Fibrosis", "negative", rng)
    assert "  " not in out
    assert " ." not in out
    assert out == out.strip()


def test_compiled_form_prejoins_and_normalizes_literals():
    tree = parse_template("There is + ( ) + no + [a, b  c, ( )] + seen .")
    assert _compile(tree, {}) == ["There is no", ("a", "b c", ""), "seen."]
    assert _compile(parse_template("[x, y]"), {}) == ("x", "y")
    assert _compile(parse_template("( ) + ( )"), {}) == ""


def test_one_option_choice_compiles_to_its_option():
    assert _compile(parse_template("[x] + [y, z]"), {}) == ["x", ("y", "z")]
    assert _compile(parse_template("a + [b + [c]] + d"), {}) == "a b c d"
    assert _compile(parse_template("[[p, q]]"), {}) == ("p", "q")


# Literals include forms the parser never makes: untrimmed, whitespace only,
# with runs of spaces and tabs, with leading punctuation.
LITERALS = st.text(alphabet="ab .,;:!?\t", min_size=1, max_size=6).map(Literal)
TEMPLATES = st.recursive(
    LITERALS | st.just(Blank()),
    lambda children: (
        st.lists(children, min_size=1, max_size=4).map(lambda xs: Choice(tuple(xs)))
        | st.lists(children, min_size=2, max_size=4).map(lambda xs: Concat(tuple(xs)))
    ),
    max_leaves=24,
)


@given(template=TEMPLATES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_compiled_render_matches_normalized_reference_walk(template, seed):
    engine = PromptEngine({("X", "positive"): template})
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        assert expand_template(template, rng) == _normalize(reference_walk(template, reference))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert engine.render_prompt("X", "positive", rng) == _normalize(reference_walk(template, reference))
        assert rng.bit_generator.state == reference.bit_generator.state


def test_choice_sampling_is_uniform():
    tree = parse_template("[a, b, c, d]")
    rng = np.random.default_rng(99)
    n = 100_000
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    for _ in range(n):
        counts[expand_template(tree, rng)] += 1
    p = 1.0 / 4.0
    tol = 3.0 * np.sqrt(p * (1 - p) / n)
    for c in counts.values():
        assert abs(c / n - p) <= tol


# -------------------------------------------------------------- render_prompt


def test_every_expression_class_renders_both_polarities(engine):
    rng = np.random.default_rng(0)
    for class_name in EXPRESSION_CLASSES:
        assert engine.render_prompt(class_name, "positive", rng)
        assert engine.render_prompt(class_name, "negative", rng)


def test_class_specific_template_classes(engine):
    rng = np.random.default_rng(1)
    for class_name in ("Cardiomegaly", "Enlarged Cardiomediastinum"):
        assert engine.render_prompt(class_name, "positive", rng)
        assert engine.render_prompt(class_name, "negative", rng)
    assert engine.render_prompt("No Finding", "positive", rng)


def test_no_finding_negative_errors(engine):
    with pytest.raises(NoTemplateError):
        engine.render_prompt("No Finding", "negative", np.random.default_rng(0))


def test_unknown_class_errors(engine):
    with pytest.raises(NoTemplateError):
        engine.render_prompt("Zebra", "positive", np.random.default_rng(0))


def test_uncertain_value_unsupported(engine):
    with pytest.raises(UnsupportedValue):
        engine.render_prompt("Edema", "uncertain", np.random.default_rng(0))


def test_lung_lesion_has_distinct_negative_expressions(engine):
    pos = engine.prompt_set("Lung Lesion", "positive")
    neg = engine.prompt_set("Lung Lesion", "negative")
    assert "There is lung lesion." in pos
    # negatives use the nodule/mass expression set, not the positive one
    assert "There is no lung lesion." not in neg
    assert any("nodules or masses" in s for s in neg)


def test_pneumothorax_negative_includes_no_is_noted_family(engine):
    sentences = engine.prompt_set("Pneumothorax", "negative")
    assert "No Pneumothorax is noted." in sentences


def test_edema_positive_includes_findings_family(engine):
    sentences = engine.prompt_set("Edema", "positive")
    assert "Findings are suggestive of Pulmonary edema." in sentences


def test_no_finding_positive_lungs_clear(engine):
    assert "the lungs are clear." in engine.prompt_set("No Finding", "positive")


# ----------------------------------------------------------- build_study_text


def sentence_count(text):
    return sum(text.count(p) for p in ".!?")


def test_build_single_class(engine):
    out = engine.build_study_text({"Cardiomegaly": "positive"}, np.random.default_rng(3))
    assert out in engine.prompt_set("Cardiomegaly", "positive")


def test_build_skips_uncertain_and_none(engine):
    with pytest.raises(EmptyLabelSet):
        engine.build_study_text(
            {"Edema": "uncertain", "Fracture": "none"}, np.random.default_rng(0)
        )


def test_build_negative_sampling_mode(engine):
    labels = {c: "negative" for c in EXPRESSION_CLASSES[:8]}
    labels["Pneumonia"] = "positive"
    out = engine.build_study_text(labels, np.random.default_rng(5), negative_sample_count=3)
    assert sentence_count(out) == 1 + 3


def test_build_sentence_count_matches_included_classes(engine):
    labels = {
        "Pneumonia": "positive",
        "Edema": "positive",
        "Fracture": "negative",
        "Hernia": "uncertain",
    }
    out = engine.build_study_text(labels, np.random.default_rng(8))
    assert sentence_count(out) == 3


def test_build_deterministic(engine):
    labels = {"Pneumonia": "positive", "Edema": "negative", "Mass": "negative"}
    a = engine.build_study_text(labels, np.random.default_rng(21))
    b = engine.build_study_text(labels, np.random.default_rng(21))
    assert a == b


def test_build_skips_unrenderable_no_finding_negative(engine):
    out = engine.build_study_text(
        {"No Finding": "negative", "Pneumonia": "positive"}, np.random.default_rng(2)
    )
    assert sentence_count(out) == 1


# ------------------------------------------------------------ eval prompt pair


def test_eval_prompt_pair_simple(engine):
    assert engine.eval_prompt_pair("Pneumothorax", "simple") == ("Pneumothorax", "No Pneumothorax")
    assert engine.eval_prompt_pair("X", "simple") == ("X", "No X")


def test_eval_prompt_pair_rsna_fixed(engine):
    for class_name in ("Pneumonia", "whatever"):
        assert engine.eval_prompt_pair(class_name, "rsna") == (
            "Findings suggesting pneumonia.",
            "No evidence of pneumonia.",
        )


def test_eval_prompt_pair_rejects_empty_class(engine):
    with pytest.raises(ValueError):
        engine.eval_prompt_pair("", "simple")


# --------------------------------------------------------------- grammar file


def test_grammar_covers_all_18_expression_classes(engine):
    # the three template-only classes carry no expression entry
    template_only = {"Cardiomegaly", "Enlarged Cardiomediastinum", "No Finding"}
    assert set(engine.classes) == set(EXPRESSION_CLASSES) | template_only
    for class_name in EXPRESSION_CLASSES:
        assert (class_name, "positive") in engine.prompts
        assert (class_name, "negative") in engine.prompts


def test_grammar_loadable_from_env_override(tmp_path):
    # the environment override is gone: another grammar loads through from_path
    grammar = tmp_path / "mini.grammar"
    grammar.write_text(
        "template|default|positive|{E} is here.\n"
        "template|default|negative|{E} is gone.\n"
        "expr|Thing|both|[thing, object]\n",
        encoding="utf-8",
    )
    engine = PromptEngine.from_path(grammar)
    assert engine.classes == ["Thing"]
    assert engine.prompt_set("Thing", "positive") == frozenset(
        {"thing is here.", "object is here."}
    )


@pytest.mark.parametrize(
    "entries, class_name, polarity",
    [
        ("template|Thing|positive|no {E}.\n", "Thing", "positive"),
        ("template|default|negative|no {E}.\nexpr|Thing|negative|[a, {E}]\n", "Thing", "negative"),
        ("template|default|positive|{E}.\nexpr|Thing|both|[thing]\n", "Thing", "negative"),
    ],
    ids=["slot_without_expression", "expression_holds_slot", "no_default_template"],
)
def test_unrenderable_grammar_fails_at_load(tmp_path, entries, class_name, polarity):
    grammar = tmp_path / "bad.grammar"
    grammar.write_text(entries, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        PromptEngine.from_path(grammar)
    message = str(err.value)
    assert str(grammar) in message
    assert repr(class_name) in message and polarity in message


# ------------------------------------------------------------- golden stream

GOLDEN_LABELS = {
    "Atelectasis": "negative",
    "Cardiomegaly": "negative",
    "Edema": "positive",
    "Enlarged Cardiomediastinum": "positive",
    "Fibrosis": "negative",
    "Fracture": "none",
    "Lung Lesion": "negative",
    "No Finding": "negative",
    "Nodule": "negative",
    "Pleural Effusion": "positive",
    "Pneumothorax": "uncertain",
    "Support Devices": "negative",
}
# SHA-256 of the stream below: a refactor of the grammar or the renderer must
# keep every rendered bit, since training batches are built from these texts.
GOLDEN_SHA256 = "aedd1c41a5628b6439ab3f86c1d4e00226472465044a404ed5caab37af9d0045"


def test_render_stream_matches_golden_digest(engine):
    digest = hashlib.sha256()
    for class_name in engine.classes:
        for value in ("positive", "negative"):
            rng = np.random.default_rng(0)
            try:
                draws = [engine.render_prompt(class_name, value, rng) for _ in range(200)]
            except NoTemplateError:
                continue
            digest.update("\n".join([class_name, value, *draws, ""]).encode())
    for seed in range(300):
        count = (None, 1, 2, 3)[seed % 4]
        text = engine.build_study_text(GOLDEN_LABELS, np.random.default_rng(seed), count)
        digest.update(f"{seed}:{text}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256
