import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiger.generator import _FAMILIES
from tiger.geometry import Box2, OrientedBox3
from tiger.runtime import REGISTRY
from tiger.trajectory import (
    ANSWER_FORMATS,
    KINDS,
    Answer,
    Box2Value,
    Choice,
    Matrix,
    ObbValue,
    OrderingError,
    Point2,
    Point3,
    Scalar,
    Text,
    Thought,
    ToolCall,
    ToolResult,
    Trajectory,
    TrajectoryError,
    TrajectorySyntaxError,
    Value,
    ValueList,
    format_number,
    parse_trajectory,
    parse_value,
    payload,
    render_trajectory,
    render_value,
    validate_format,
)

MINIMAL = (
    "<think>locate table</think>"
    "<tool_call>camera_extrinsics(view=1)</tool_call>"
    "<tool_response>[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]</tool_response>"
    "<answer format=choice>B</answer>"
)


class TestParseBasics:
    def test_minimal_trace(self):
        t = parse_trajectory(MINIMAL)
        assert len(t.steps) == 4
        assert isinstance(t.steps[0], Thought)
        call = t.steps[1]
        assert call.name == "camera_extrinsics"
        assert call.args == (("view", Scalar(1.0)),)
        result = t.steps[2]
        assert isinstance(result.value, Matrix) and result.value.shape == (4, 4)
        assert t.answer.value == Choice("B")

    def test_response_before_call_is_ordering_error(self):
        text = "<tool_response>1</tool_response><answer format=scalar>1</answer>"
        with pytest.raises(OrderingError):
            parse_trajectory(text)

    def test_response_after_thought_is_ordering_error(self):
        text = (
            "<tool_call>camera_intrinsics(view=0)</tool_call>"
            "<think>hm</think><tool_response>1</tool_response>"
            "<answer format=scalar>1</answer>"
        )
        with pytest.raises(OrderingError):
            parse_trajectory(text)

    def test_missing_answer(self):
        with pytest.raises(OrderingError):
            parse_trajectory("<think>no answer</think>")

    def test_content_after_answer(self):
        with pytest.raises(OrderingError):
            parse_trajectory(MINIMAL + "<think>extra</think>")

    def test_answer_alone_is_rejected(self):
        with pytest.raises(OrderingError):
            parse_trajectory("<answer format=choice>A</answer>")

    def test_errors_carry_offsets(self):
        bad = "<think>x</think>garbage"
        with pytest.raises(TrajectorySyntaxError) as info:
            parse_trajectory(bad)
        assert info.value.offset == bad.index("garbage")

    def test_unknown_tool_parses(self):
        text = (
            "<think>try</think>"
            "<tool_call>warp_drive(view=0)</tool_call>"
            "<answer format=scalar>1</answer>"
        )
        t = parse_trajectory(text)
        assert t.calls[0].name == "warp_drive"


class TestValueLiterals:
    def test_paper_style_point_list(self):
        v = parse_value("[(0.059, 0.877)]")
        assert v == ValueList((Point2(0.059, 0.877, pixel=False),))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2.52m", Scalar(2.52, "m")),
            ("12.5", Scalar(12.5)),
            ("3", Scalar(3.0)),
            ("-4.25e-3", Scalar(-0.00425)),
            ("C", Choice("C")),
            ("(0.25, 0.75)", Point2(0.25, 0.75)),
            ("px(320, 240)", Point2(320.0, 240.0, pixel=True)),
            ("(1, -2, 3.5)", Point3(1.0, -2.0, 3.5)),
            ('"a \\"b\\" c"', Text('a "b" c')),
            ("[1, 2, 3]", ValueList((Scalar(1.0), Scalar(2.0), Scalar(3.0)))),
            ("[]", ValueList(())),
            ("box(1, 2, 3, 4)", Box2Value(Box2(1.0, 2.0, 3.0, 4.0))),
            (
                "obb(center=(1, 2, 3), half=(0.5, 0.5, 0.5), yaw=0.25)",
                ObbValue(OrientedBox3((1, 2, 3), (0.5, 0.5, 0.5), 0.25)),
            ),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_value(text) == expected

    def test_matrix_vs_list(self):
        assert isinstance(parse_value("[[1, 2], [3, 4]]"), Matrix)
        ragged = parse_value("[[1, 2], [3]]")
        assert isinstance(ragged, ValueList)
        assert isinstance(parse_value("[[1, 2], (3, 4)]"), ValueList)

    def test_out_of_range_normalized_point_still_parses(self):
        v = parse_value("(1.2, 0.5)")
        assert v == Point2(1.2, 0.5)

    def test_bad_values(self):
        for text in ["(1)", "(1, 2, 3, 4)", "1e999", "nan", "obb(center=(1,2,3))"]:
            with pytest.raises(TrajectoryError):
                parse_value(text)

    def test_value_constructors_reject_nonfinite(self):
        with pytest.raises(ValueError):
            Scalar(math.inf)
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)


class TestRenderer:
    def test_round_trip_minimal(self):
        t = parse_trajectory(MINIMAL)
        assert parse_trajectory(render_trajectory(t)) == t

    def test_render_is_deterministic(self):
        t1 = parse_trajectory(MINIMAL)
        t2 = parse_trajectory(MINIMAL)
        assert render_trajectory(t1) == render_trajectory(t2)

    def test_render_parse_byte_identity_on_canonical(self):
        t = parse_trajectory(MINIMAL)
        canonical = render_trajectory(t)
        assert render_trajectory(parse_trajectory(canonical)) == canonical

    def test_format_number_shortest_round_trip(self):
        rng = np.random.default_rng(71)
        for _ in range(2000):
            x = float(rng.normal() * 10.0 ** float(rng.integers(-8, 8)))
            assert float(format_number(x)) == x
        assert format_number(2.0) == "2"
        assert format_number(-0.0) == "0"

    def test_value_render_round_trip_random(self):
        rng = np.random.default_rng(72)

        def random_value(depth=0):
            kind = rng.integers(0, 9 if depth < 2 else 7)
            if kind == 0:
                return Scalar(float(rng.normal()), "m" if rng.random() < 0.3 else "")
            if kind == 1:
                return Choice("ABCDEF"[rng.integers(6)])
            if kind == 2:
                return Point2(float(rng.random()), float(rng.random()))
            if kind == 3:
                return Point2(float(rng.uniform(0, 640)), float(rng.uniform(0, 480)), pixel=True)
            if kind == 4:
                return Point3(*(float(x) for x in rng.normal(size=3)))
            if kind == 5:
                rows = int(rng.integers(1, 4))
                cols = int(rng.integers(1, 4))
                return Matrix(
                    tuple(tuple(float(x) for x in rng.normal(size=cols)) for _ in range(rows))
                )
            if kind == 6:
                return Text("".join(rng.choice(list("abc \"\\\n\txyz"), size=rng.integers(0, 8))))
            if kind == 7:
                return ValueList(tuple(random_value(depth + 1) for _ in range(rng.integers(0, 4))))
            u, v = sorted(rng.uniform(0, 100, size=2))
            w, z = sorted(rng.uniform(0, 100, size=2))
            if u == v or w == z:
                return Scalar(1.0)
            return Box2Value(Box2(u, w, v, z))

        for _ in range(500):
            value = random_value()
            assert parse_value(render_value(value)) == value

    def test_thought_with_tags_rejected(self):
        t = Trajectory(
            (
                Thought("bad </think> text"),
                Answer(Scalar(1.0), "scalar"),
            )
        )
        with pytest.raises(ValueError):
            render_trajectory(t)


class TestValidateFormat:
    def test_minimal_valid(self):
        assert validate_format(parse_trajectory(MINIMAL)) is True

    def test_answer_tag_mismatch(self):
        t = parse_trajectory(
            "<think>x</think><answer format=scalar>B</answer>"
        )
        assert validate_format(t) is False

    def test_out_of_range_normalized_point(self):
        t = parse_trajectory(
            "<think>x</think>"
            "<tool_call>depth_sensor(view=0, point=(1.2, 0.5))</tool_call>"
            "<answer format=scalar>1</answer>"
        )
        assert validate_format(t) is False

    def test_pose_answer_requires_4x4(self):
        good = parse_trajectory(
            "<think>x</think>"
            "<answer format=pose>[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]</answer>"
        )
        assert validate_format(good) is True
        bad = parse_trajectory(
            "<think>x</think><answer format=pose>[[1, 0], [0, 1]]</answer>"
        )
        assert validate_format(bad) is False

    def test_point2_answer_accepts_list(self):
        t = parse_trajectory(
            "<think>x</think><answer format=point2>[(0.059, 0.877)]</answer>"
        )
        assert validate_format(t) is True
        empty = parse_trajectory("<think>x</think><answer format=point2>[]</answer>")
        assert validate_format(empty) is False

    def test_unknown_format_tag(self):
        t = parse_trajectory("<think>x</think><answer format=blob>1</answer>")
        assert validate_format(t) is False

    @pytest.mark.parametrize("tag", ["int", "box2", "text_list"])
    def test_argument_only_kind_is_no_answer_tag(self, tag):
        value = {"int": "1", "box2": "box(0, 0, 1, 1)", "text_list": '["a"]'}[tag]
        t = parse_trajectory(f"<think>x</think><answer format={tag}>{value}</answer>")
        assert KINDS[tag](t.answer.value)
        assert validate_format(t) is False

    def test_programmatic_bad_ordering(self):
        t = Trajectory(
            (
                Thought("x"),
                ToolResult(Scalar(1.0)),
                Answer(Scalar(1.0), "scalar"),
            )
        )
        assert validate_format(t) is False


# one value of every Value subclass
EVERY_KIND_OF_VALUE = (
    Scalar(1.5, "m"),
    Choice("B"),
    Point2(0.25, 0.5),
    Point2(320.0, 240.0, pixel=True),
    Point3(1.0, 2.0, 3.0),
    Matrix(((1.0, 2.0), (3.0, 4.0))),
    Text("mug"),
    Box2Value(Box2(0, 0, 4, 3)),
    ObbValue(OrientedBox3((0.0, 0.0, 0.5), (0.1, 0.2, 0.3), 0.4)),
    ValueList((Scalar(1.0), Point2(0.5, 0.5))),
)


class TestKinds:
    """One table of value kinds serves tool arguments and answer tags."""

    def test_every_argument_kind_is_in_the_table(self):
        named = {kind for spec in REGISTRY.values() for kind in spec.params.values()}
        assert named <= set(KINDS)

    def test_every_answer_format_is_in_the_table(self):
        formats = {fmt for entry in _FAMILIES.values() for fmt in entry[1]}
        assert formats <= ANSWER_FORMATS <= set(KINDS)

    def test_payload_covers_every_value_class(self):
        assert {type(v) for v in EVERY_KIND_OF_VALUE} == set(Value.__subclasses__())
        for v in EVERY_KIND_OF_VALUE:
            payload(v)
        assert payload(EVERY_KIND_OF_VALUE[-1]) == (
            ("list", ("scalar", ""), ("point2", False)),
            (1.0, 0.5, 0.5),
        )
        assert payload(ValueList((Scalar(1.0), Text("a"))))[1] is None


class TestParserTotality:
    def test_deep_nesting_is_a_positioned_error(self):
        for payload in ["[" * 5000, "[[1, " * 2000]:
            text = f"<tool_call>f(x={payload})</tool_call>"
            with pytest.raises(TrajectoryError) as info:
                parse_trajectory(text)
            assert isinstance(info.value.offset, int)

    @settings(max_examples=2000, deadline=None)
    @given(st.binary(max_size=80))
    @example(b"<think>a <tool_call> b</think><answer format=scalar>1</answer>")
    def test_arbitrary_bytes_never_crash(self, blob):
        text = blob.decode("latin-1")
        try:
            t = parse_trajectory(text)
        except TrajectoryError as exc:
            assert isinstance(exc.offset, int)
            assert 0 <= exc.offset <= len(text)
        else:
            assert parse_trajectory(render_trajectory(t)) == t

    @settings(max_examples=500, deadline=None)
    @given(
        st.text(
            alphabet="<>/thinkcalrespo_aw= ()[]{},.0123456789\"signed",
            max_size=120,
        )
    )
    @example("<think><think><tool_response><answer</think><answer format=text>\"\"</answer>")
    def test_tag_like_text_never_crashes(self, text):
        try:
            t = parse_trajectory(text)
        except TrajectoryError as exc:
            assert 0 <= exc.offset <= len(text)
        else:
            assert parse_trajectory(render_trajectory(t)) == t


# Every raise site of the parser: (parser, text with "|" at the error offset,
# exception class, message).  Error text reaches `error:` lines, so all
# three are part of the contract.
T = "<think>t</think>"
CALL = T + "<tool_call>f("
TAIL = ")</tool_call><answer format=scalar>1</answer>"
RESPONSE = T + "<tool_call>f()</tool_call><tool_response>"
RAISE_SITES = [
    (parse_trajectory, "|", OrderingError, "missing final answer"),
    (parse_trajectory, "<think>x</think>  |", OrderingError, "missing final answer"),
    (parse_trajectory, "<think>x</think>|garbage", TrajectorySyntaxError, "expected a tagged block"),
    (parse_trajectory, "<think>|never closed", TrajectorySyntaxError, "missing '</think>'"),
    (parse_trajectory, T + "<tool_call> |(x=1)", TrajectorySyntaxError, "expected identifier"),
    (parse_trajectory, T + "<tool_call>f |x=1)", TrajectorySyntaxError, "expected '('"),
    (parse_trajectory, CALL + "|=1" + TAIL, TrajectorySyntaxError, "expected identifier"),
    (parse_trajectory, CALL + "x |1" + TAIL, TrajectorySyntaxError, "expected '='"),
    (parse_trajectory, CALL + "x=|" + TAIL, TrajectorySyntaxError, "expected value"),
    (parse_trajectory, CALL + "x=1 |y=2" + TAIL, TrajectorySyntaxError, "expected ','"),
    (parse_trajectory, T + "<tool_call>f() |</tool_call >", TrajectorySyntaxError,
     "expected '</tool_call>'"),
    (parse_trajectory, "|<tool_response>1</tool_response>", OrderingError,
     "tool_response without a preceding tool_call"),
    (parse_trajectory, RESPONSE + "|@</tool_response>", TrajectorySyntaxError, "expected value"),
    (parse_trajectory, RESPONSE + "1 |2</tool_response>", TrajectorySyntaxError,
     "expected '</tool_response>'"),
    (parse_trajectory, T + "<answer |scalar>1</answer>", TrajectorySyntaxError, "expected 'format'"),
    (parse_trajectory, T + "<answer format |scalar>1</answer>", TrajectorySyntaxError, "expected '='"),
    (parse_trajectory, T + "<answer format= |>1</answer>", TrajectorySyntaxError, "expected identifier"),
    (parse_trajectory, T + "<answer format=scalar |1</answer>", TrajectorySyntaxError, "expected '>'"),
    (parse_trajectory, T + "<answer format=scalar>1|</answr>", TrajectorySyntaxError,
     "expected '</answer>'"),
    (parse_trajectory, "|<answer format=scalar>1</answer>", OrderingError,
     "answer must follow at least one step"),
    (parse_trajectory, T + "<answer format=scalar>1</answer> |x", OrderingError,
     "content after the final answer"),
    (parse_value, "( |x, 1)", TrajectorySyntaxError, "expected number"),
    (parse_value, "(1, |x)", TrajectorySyntaxError, "expected number"),
    (parse_value, "(1, 2,|)", TrajectorySyntaxError, "expected number"),
    (parse_value, "1e999|m", TrajectorySyntaxError, "number out of range"),
    (parse_value, "(1, 1e999|)", TrajectorySyntaxError, "number out of range"),
    (parse_value, "(1 |2)", TrajectorySyntaxError, "expected ','"),
    (parse_value, "(1|m, 2)", TrajectorySyntaxError, "expected ','"),
    (parse_value, "(1, 2, 3, 4)|", TrajectorySyntaxError, "point tuples have 2 or 3 components"),
    (parse_value, "px(1, 2, 3)|", TrajectorySyntaxError, "px(...) takes two components"),
    (parse_value, "box(1, 2, 3|)", TrajectorySyntaxError, "expected ','"),
    (parse_value, "box(1, 2, 3, 4|, 5)", TrajectorySyntaxError, "expected ')'"),
    (parse_value, "box(3, 2, 1, 4)|", TrajectorySyntaxError, "box must have positive extent"),
    (parse_value, "obb(|centre=(1, 2, 3), half=(1, 1, 1), yaw=0)", TrajectorySyntaxError,
     "expected 'center'"),
    (parse_value, "obb(center=(1, 2)|, half=(1, 1, 1), yaw=0)", TrajectorySyntaxError,
     "center must be a 3-tuple"),
    (parse_value, "obb(center=(1, 2, 3), half=(1, 1)|, yaw=0)", TrajectorySyntaxError,
     "half must be a 3-tuple"),
    (parse_value, "obb(center=(1, 2, 3), half=(1, 1, 1) |yaw=0)", TrajectorySyntaxError,
     "expected ','"),
    (parse_value, "obb(center=(1, 2, 3), half=(1, 1, 1), yaw=0|, 1)", TrajectorySyntaxError,
     "expected ')'"),
    (parse_value, "obb(center=(1, 2, 3), half=(1, 0, 1), yaw=0)|", TrajectorySyntaxError,
     "half extents must be positive"),
    (parse_value, '"abc|', TrajectorySyntaxError, "unterminated string"),
    (parse_value, '"abc\\|', TrajectorySyntaxError, "unterminated escape"),
    (parse_value, '"a\\|qb"', TrajectorySyntaxError, "bad escape \\q"),
    (parse_value, "[" * 33 + "|" + "]" * 33, TrajectorySyntaxError, "value nesting too deep"),
    (parse_value, "[1, 2 |3]", TrajectorySyntaxError, "expected ','"),
    (parse_value, "[1, 2] |3", TrajectorySyntaxError, "trailing characters after value"),
]


@pytest.mark.parametrize("parse,marked,error,message", RAISE_SITES)
def test_raise_site_class_message_offset(parse, marked, error, message):
    offset = marked.index("|")
    with pytest.raises(TrajectoryError) as info:
        parse(marked.replace("|", "", 1))
    assert type(info.value) is error
    assert (str(info.value), info.value.offset) == (f"{message} (offset {offset})", offset)
