"""Canonical data model, grammar, parser, and renderer for reasoning traces.

A trajectory is a sequence of tagged blocks ending in exactly one answer:

    <think>free text</think>
    <tool_call>name(arg=value, ...)</tool_call>
    <tool_response>value</tool_response>
    <answer format=tag>value</answer>

A tool response must immediately follow its tool call.  Value literals are
closed and typed: scalars (`2.52`, `2.52m`), choices `A`..`F`, normalized
points `(x, y)`, pixel points `px(u, v)`, 3D points `(x, y, z)`, matrices
`[[...], [...]]`, lists `[v, ...]`, 2D boxes `box(umin, vmin, umax, vmax)`,
3D boxes `obb(center=(x,y,z), half=(a,b,c), yaw=r)`, and quoted strings.
See docs/trajectory_grammar.md for the normative grammar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .geometry import Box2, OrientedBox3


class TrajectoryError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class TrajectorySyntaxError(TrajectoryError):
    pass


class OrderingError(TrajectoryError):
    pass


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value:
    """Base class of the closed value union used in trajectories."""

    __slots__ = ()


def _require_finite(*nums):
    for x in nums:
        if not math.isfinite(x):
            raise ValueError("numeric payloads must be finite")


@dataclass(frozen=True)
class Scalar(Value):
    value: float
    unit: str = ""

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require_finite(self.value)


@dataclass(frozen=True)
class Choice(Value):
    letter: str

    def __post_init__(self):
        if self.letter not in "ABCDEF" or len(self.letter) != 1:
            raise ValueError("choice must be a single letter A..F")


@dataclass(frozen=True)
class Point2(Value):
    """2D point; normalized image coordinates unless pixel=True."""

    x: float
    y: float
    pixel: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        _require_finite(self.x, self.y)


@dataclass(frozen=True)
class Point3(Value):
    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        _require_finite(self.x, self.y, self.z)


@dataclass(frozen=True)
class Matrix(Value):
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in row) for row in self.rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must have equal length")
        for r in rows:
            _require_finite(*r)
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]))


@dataclass(frozen=True)
class Text(Value):
    text: str


@dataclass(frozen=True)
class Box2Value(Value):
    box: Box2


@dataclass(frozen=True)
class ObbValue(Value):
    box: OrientedBox3


@dataclass(frozen=True)
class ValueList(Value):
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


class Step:
    __slots__ = ()


@dataclass(frozen=True)
class Thought(Step):
    text: str


@dataclass(frozen=True)
class ToolCall(Step):
    name: str
    args: tuple  # ordered (name, Value) pairs

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def arg(self, name: str):
        for key, value in self.args:
            if key == name:
                return value
        return None


@dataclass(frozen=True)
class ToolResult(Step):
    value: Value


@dataclass(frozen=True)
class Answer(Step):
    value: Value
    format: str


@dataclass(frozen=True)
class Trajectory:
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def answer(self):
        if self.steps and isinstance(self.steps[-1], Answer):
            return self.steps[-1]
        return None

    @property
    def calls(self):
        return tuple(s for s in self.steps if isinstance(s, ToolCall))

    @property
    def views(self):
        """Sorted view ids referenced by integral `view` arguments."""
        seen = set()
        for call in self.calls:
            v = call.arg("view")
            if isinstance(v, Scalar) and v.value == int(v.value):
                seen.add(int(v.value))
        return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# Number formatting (shortest round-trip decimal)
# ---------------------------------------------------------------------------


def format_number(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot render a non-finite number")
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


_NUM_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_UNIT_RE = re.compile(r"[a-z]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CHOICE_RE = re.compile(r"[A-F](?![A-Za-z0-9_])")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Reader:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def match(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.match(literal):
            raise TrajectorySyntaxError(f"expected {literal!r}", self.pos)

    def until(self, closing: str) -> str:
        end = self.text.find(closing, self.pos)
        if end < 0:
            raise TrajectorySyntaxError(f"missing {closing!r}", self.pos)
        chunk = self.text[self.pos : end]
        self.pos = end + len(closing)
        return chunk

    def ident(self) -> str:
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise TrajectorySyntaxError("expected identifier", self.pos)
        self.pos = m.end()
        return m.group()


def _parse_string(r: _Reader) -> str:
    out = []
    while True:
        if r.eof():
            raise TrajectorySyntaxError("unterminated string", r.pos)
        ch = r.text[r.pos]
        r.pos += 1
        if ch == '"':
            return "".join(out)
        if ch == "\\":
            if r.eof():
                raise TrajectorySyntaxError("unterminated escape", r.pos)
            esc = r.text[r.pos]
            r.pos += 1
            table = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
            if esc not in table:
                raise TrajectorySyntaxError(f"bad escape \\{esc}", r.pos - 1)
            out.append(table[esc])
        else:
            out.append(ch)


def _parse_number(r: _Reader) -> float:
    m = _NUM_RE.match(r.text, r.pos)
    if not m:
        raise TrajectorySyntaxError("expected number", r.pos)
    r.pos = m.end()
    value = float(m.group())
    if not math.isfinite(value):
        raise TrajectorySyntaxError("number out of range", r.pos)
    return value


def _parse_tuple(r: _Reader):
    # '(' already consumed
    nums = []
    r.skip_ws()
    while True:
        nums.append(_parse_number(r))
        r.skip_ws()
        if r.match(")"):
            break
        r.expect(",")
        r.skip_ws()
    if len(nums) == 2:
        return Point2(nums[0], nums[1], pixel=False)
    if len(nums) == 3:
        return Point3(nums[0], nums[1], nums[2])
    raise TrajectorySyntaxError("point tuples have 2 or 3 components", r.pos)


_MAX_VALUE_DEPTH = 32


def _parse_bracket(r: _Reader, depth: int):
    # '[' already consumed
    if depth > _MAX_VALUE_DEPTH:
        raise TrajectorySyntaxError("value nesting too deep", r.pos)
    items = []
    r.skip_ws()
    if r.match("]"):
        return ValueList(())
    while True:
        items.append(_parse_value(r, depth))
        r.skip_ws()
        if r.match("]"):
            break
        r.expect(",")
        r.skip_ws()
    rows = []
    for item in items:
        if not (
            isinstance(item, ValueList)
            and item.items
            and all(isinstance(x, Scalar) and not x.unit for x in item.items)
        ):
            return ValueList(tuple(items))
        rows.append(tuple(x.value for x in item.items))
    if any(len(row) != len(rows[0]) for row in rows):
        return ValueList(tuple(items))
    return Matrix(tuple(rows))


def _parse_value(r: _Reader, depth: int = 0) -> Value:
    r.skip_ws()
    if r.eof():
        raise TrajectorySyntaxError("expected value", r.pos)
    ch = r.text[r.pos]
    if ch == "(":
        r.pos += 1
        return _parse_tuple(r)
    if ch == "[":
        r.pos += 1
        return _parse_bracket(r, depth + 1)
    if ch == '"':
        r.pos += 1
        return Text(_parse_string(r))
    if r.match("px("):
        p = _parse_tuple(r)
        if not isinstance(p, Point2):
            raise TrajectorySyntaxError("px(...) takes two components", r.pos)
        return Point2(p.x, p.y, pixel=True)
    if r.match("box("):
        nums = []
        for i in range(4):
            r.skip_ws()
            nums.append(_parse_number(r))
            r.skip_ws()
            r.expect("," if i < 3 else ")")
        try:
            return Box2Value(Box2(*nums))
        except ValueError as exc:
            raise TrajectorySyntaxError(str(exc), r.pos) from exc
    if r.match("obb("):
        fields = {}
        for i, key in enumerate(("center", "half", "yaw")):
            r.skip_ws()
            r.expect(key)
            r.skip_ws()
            r.expect("=")
            r.skip_ws()
            if key == "yaw":
                fields[key] = _parse_number(r)
            else:
                r.expect("(")
                p = _parse_tuple(r)
                if not isinstance(p, Point3):
                    raise TrajectorySyntaxError(f"{key} must be a 3-tuple", r.pos)
                fields[key] = (p.x, p.y, p.z)
            r.skip_ws()
            r.expect("," if i < 2 else ")")
        try:
            return ObbValue(OrientedBox3(fields["center"], fields["half"], fields["yaw"]))
        except ValueError as exc:
            raise TrajectorySyntaxError(str(exc), r.pos) from exc
    m = _CHOICE_RE.match(r.text, r.pos)
    if m:
        r.pos = m.end()
        return Choice(m.group())
    m = _NUM_RE.match(r.text, r.pos)
    if m:
        value = _parse_number(r)
        mu = _UNIT_RE.match(r.text, r.pos)
        unit = ""
        if mu:
            unit = mu.group()
            r.pos = mu.end()
        return Scalar(value, unit)
    raise TrajectorySyntaxError("expected value", r.pos)


def parse_value(text: str) -> Value:
    """Parse a standalone value literal; the whole string must be consumed."""
    r = _Reader(text)
    v = _parse_value(r)
    r.skip_ws()
    if not r.eof():
        raise TrajectorySyntaxError("trailing characters after value", r.pos)
    return v


def _parse_call_body(r: _Reader) -> ToolCall:
    r.skip_ws()
    name = r.ident()
    r.skip_ws()
    r.expect("(")
    args = []
    r.skip_ws()
    if not r.match(")"):
        while True:
            r.skip_ws()
            key = r.ident()
            r.skip_ws()
            r.expect("=")
            value = _parse_value(r)
            args.append((key, value))
            r.skip_ws()
            if r.match(")"):
                break
            r.expect(",")
    r.skip_ws()
    return ToolCall(name, tuple(args))


def parse_trajectory(text: str) -> Trajectory:
    """Parse trace text into a Trajectory, or raise a positioned error.

    Total over arbitrary input: every string either parses or raises
    TrajectorySyntaxError / OrderingError carrying a character offset.
    """
    if not isinstance(text, str):
        raise TypeError("trajectory text must be str")
    r = _Reader(text)
    steps = []
    while True:
        r.skip_ws()
        if r.eof():
            raise OrderingError("missing final answer", r.pos)
        start = r.pos
        if r.match("<think>"):
            steps.append(Thought(r.until("</think>")))
        elif r.match("<tool_call>"):
            call = _parse_call_body(r)
            r.expect("</tool_call>")
            steps.append(call)
        elif r.match("<tool_response>"):
            if not steps or not isinstance(steps[-1], ToolCall):
                raise OrderingError("tool_response without a preceding tool_call", start)
            value = _parse_value(r)
            r.skip_ws()
            r.expect("</tool_response>")
            steps.append(ToolResult(value))
        elif r.match("<answer"):
            r.skip_ws()
            r.expect("format")
            r.skip_ws()
            r.expect("=")
            r.skip_ws()
            tag = r.ident()
            r.skip_ws()
            r.expect(">")
            value = _parse_value(r)
            r.skip_ws()
            r.expect("</answer>")
            if not steps:
                raise OrderingError("answer must follow at least one step", start)
            steps.append(Answer(value, tag))
            r.skip_ws()
            if not r.eof():
                raise OrderingError("content after the final answer", r.pos)
            return Trajectory(tuple(steps))
        else:
            raise TrajectorySyntaxError("expected a tagged block", r.pos)


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

_BLOCK_TAGS = ("</think>", "<think>", "<tool_call>", "<tool_response>", "<answer")


def render_value(v: Value) -> str:
    if isinstance(v, Scalar):
        return format_number(v.value) + v.unit
    if isinstance(v, Choice):
        return v.letter
    if isinstance(v, Point2):
        body = f"({format_number(v.x)}, {format_number(v.y)})"
        return "px" + body if v.pixel else body
    if isinstance(v, Point3):
        return f"({format_number(v.x)}, {format_number(v.y)}, {format_number(v.z)})"
    if isinstance(v, Matrix):
        rows = ", ".join(
            "[" + ", ".join(format_number(x) for x in row) + "]" for row in v.rows
        )
        return "[" + rows + "]"
    if isinstance(v, Text):
        escaped = (
            v.text.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    if isinstance(v, Box2Value):
        b = v.box
        parts = ", ".join(format_number(x) for x in (b.umin, b.vmin, b.umax, b.vmax))
        return f"box({parts})"
    if isinstance(v, ObbValue):
        b = v.box
        c = ", ".join(format_number(x) for x in b.center)
        h = ", ".join(format_number(x) for x in b.half_extents)
        return f"obb(center=({c}), half=({h}), yaw={format_number(b.yaw)})"
    if isinstance(v, ValueList):
        return "[" + ", ".join(render_value(x) for x in v.items) + "]"
    raise TypeError(f"cannot render {type(v).__name__}")


def _render_step(s: Step) -> str:
    if isinstance(s, Thought):
        if any(tag in s.text for tag in _BLOCK_TAGS):
            raise ValueError("thought text may not contain block tags")
        return f"<think>{s.text}</think>"
    if isinstance(s, ToolCall):
        args = ", ".join(f"{k}={render_value(v)}" for k, v in s.args)
        return f"<tool_call>{s.name}({args})</tool_call>"
    if isinstance(s, ToolResult):
        return f"<tool_response>{render_value(s.value)}</tool_response>"
    if isinstance(s, Answer):
        return f"<answer format={s.format}>{render_value(s.value)}</answer>"
    raise TypeError(f"cannot render {type(s).__name__}")


def render_trajectory(t: Trajectory) -> str:
    """Canonical, byte-deterministic text form; parse(render(t)) == t."""
    return "\n".join(_render_step(s) for s in t.steps)


# ---------------------------------------------------------------------------
# Format validation
# ---------------------------------------------------------------------------

def _values_in(step: Step):
    if isinstance(step, ToolCall):
        for _, v in step.args:
            yield v
    elif isinstance(step, ToolResult):
        yield step.value
    elif isinstance(step, Answer):
        yield step.value


def _value_well_typed(v: Value) -> bool:
    if isinstance(v, Point2) and not v.pixel:
        return 0.0 <= v.x <= 1.0 and 0.0 <= v.y <= 1.0
    if isinstance(v, ValueList):
        return all(_value_well_typed(x) for x in v.items)
    return True


def _answer_matches(tag: str, v: Value) -> bool:
    if tag == "choice":
        return isinstance(v, Choice)
    if tag == "scalar":
        return isinstance(v, Scalar)
    if tag == "point2":
        if isinstance(v, Point2) and not v.pixel:
            return True
        return (
            isinstance(v, ValueList)
            and len(v.items) > 0
            and all(isinstance(x, Point2) and not x.pixel for x in v.items)
        )
    if tag == "point3":
        return isinstance(v, Point3)
    if tag == "pose":
        return isinstance(v, Matrix) and v.shape == (4, 4)
    if tag == "text":
        return isinstance(v, Text)
    return False


def validate_format(t: Trajectory) -> bool:
    """Structural validity: step ordering, value ranges, answer tag match.

    Decided purely by trajectory structure; never consults a scene or
    ground truth.
    """
    steps = t.steps
    if len(steps) < 2:
        return False
    if sum(1 for s in steps if isinstance(s, Answer)) != 1:
        return False
    if not isinstance(steps[-1], Answer):
        return False
    for i, s in enumerate(steps):
        if isinstance(s, ToolResult):
            if i == 0 or not isinstance(steps[i - 1], ToolCall):
                return False
        for v in _values_in(s):
            if not _value_well_typed(v):
                return False
    answer = steps[-1]
    return _answer_matches(answer.format, answer.value)
