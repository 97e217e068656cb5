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
from itertools import chain

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


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
# A scanner over compiled patterns.  Every pattern reads the whitespace
# before its token.  A run of comma-separated numbers, the body of a tuple,
# a box(...) or a matrix row, is one match, and so is a scalar with its unit.
# The last match of a value also reads the whitespace after it and the
# delimiter after that, so that a list or a call sees its next ',' or its
# closer without another match.  The value parsers take the text and an
# offset and return (value, offset of the delimiter, delimiter), where the
# delimiter is ',', ')', ']' or '' for anything else.

_WS = r"[ \t\r\n]*"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM = r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_WS_RE = re.compile(_WS)
_NUM_RE = re.compile(_NUM)
_DELIMITER = _WS + r"([,)\]]?)"
_DELIMITER_RE = re.compile(_DELIMITER)
# groups: the run of numbers with its whitespace, the next character (the
# closer, if all is well), and the delimiter after that
_NUMBERS_RE = re.compile(f"{_WS}({_NUM}{_WS}(?:,{_WS}{_NUM}{_WS})*)(.?){_DELIMITER}", re.DOTALL)
# Every value starts with one match of this pattern: a number with its unit,
# the whitespace after it and the ',', ')' or ']' after that ('' if none);
# else the opener of a compound value; else a choice letter.
_VALUE = (
    f"(?:(?P<number>{_NUM})(?P<unit>[a-z]*){_WS}(?P<delimiter>[,)\\]]?)"
    r'|(?P<opener>\(|\[|"|px\(|box\(|obb\()|(?P<choice>[A-F])(?![A-Za-z0-9_]))'
)
_VALUE_RE = re.compile(_WS + _VALUE)
# a call argument: its name, '=' and the start of its value
_ARGUMENT_RE = re.compile(f"{_WS}(?P<key>{_IDENT}){_WS}={_WS}{_VALUE}")
# a string body with valid escapes only; it stops at a bad escape or the end
_STRING_BODY = r'[^"\\]*(?:\\["\\nt][^"\\]*)*'
_STRING_RE = re.compile(f'({_STRING_BODY})"{_DELIMITER}')
_STRING_BODY_RE = re.compile(_STRING_BODY)
_ESCAPE_RE = re.compile(r'\\(["\\nt])')
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_BLOCK_RE = re.compile(_WS + "(<think>|<tool_call>|<tool_response>|<answer)")


def _chain(*tokens):
    """A pattern for tokens in sequence, each with the whitespace after it.

    Each token is optional after the one before, so a match stops where the
    first missing token belongs; None stands for an identifier.
    """
    pattern = ""
    for token in reversed(tokens):
        body = _IDENT if token is None else re.escape(token)
        pattern = f"(?:({body}){_WS}{pattern})?"
    messages = tuple("expected identifier" if t is None else f"expected {t!r}" for t in tokens)
    return re.compile(_WS + pattern), messages


_CALL_HEAD = _chain(None, "(")
_ARGUMENT = _chain(None, "=")
_CALL_END = _chain("</tool_call>")
_RESPONSE_END = _chain("</tool_response>")
_ANSWER_HEAD = _chain("format", "=", None, ">")
_ANSWER_END = _chain("</answer>")
_OBB_CENTER = _chain("center", "=", "(")
_OBB_HALF = _chain(",", "half", "=", "(")
_OBB_YAW = _chain(",", "yaw", "=")


def _scan(chain, text: str, pos: int):
    """Match a chain at pos, or raise at the first token it lacks."""
    pattern, messages = chain
    m = pattern.match(text, pos)
    found = m.lastindex or 0
    if found < len(messages):
        raise TrajectorySyntaxError(messages[found], m.end())
    return m


def _floats(text: str, run, numbers) -> list:
    """The floats of the leading `numbers` texts of a _NUMBERS_RE match."""
    values = list(map(float, numbers))
    if not all(map(math.isfinite, values)):
        for value, number in zip(values, _NUM_RE.finditer(text, run.start(1))):
            if not math.isfinite(value):
                raise TrajectorySyntaxError("number out of range", number.end())
    return values


def _numbers(text: str, pos: int, count: int = 0):
    """Numbers separated by ',' and closed by ')': (values, the run's match).

    With a count, exactly that many; else any number of them.  The ')' ends
    at run.end(2), and group 3 of the run is the delimiter after it.
    """
    run = _NUMBERS_RE.match(text, pos)
    if run is None:
        raise TrajectorySyntaxError("expected number", _WS_RE.match(text, pos).end())
    numbers = run[1].split(",")
    found = len(numbers)
    values = _floats(text, run, numbers[:count] if count else numbers)
    stop, at = run[2], run.start(2)
    if count and found >= count:
        if found > count:  # where the ')' belongs, a ',' goes on
            at = run.start(1) + len(",".join(numbers[:count]))
        elif stop == ")":
            return values, run
        raise TrajectorySyntaxError("expected ')'", at)
    if stop == ",":  # a comma that no number follows
        raise TrajectorySyntaxError("expected number", _WS_RE.match(text, at + 1).end())
    if stop == ")" and not count:
        return values, run
    raise TrajectorySyntaxError("expected ','", at)


def _point(text: str, pos: int):
    # '(' already read; returns the 2 or 3 numbers and the run's match
    values, run = _numbers(text, pos)
    if not 2 <= len(values) <= 3:
        raise TrajectorySyntaxError("point tuples have 2 or 3 components", run.end(2))
    return values, run


def _parse_box(text: str, pos: int):
    # 'box(' already read
    values, run = _numbers(text, pos, 4)
    try:
        return Box2Value(Box2(*values)), run.start(3), run[3]
    except ValueError as exc:
        raise TrajectorySyntaxError(str(exc), run.end(2)) from exc


def _parse_obb(text: str, pos: int):
    # 'obb(' already read
    fields = []
    for key, chain in (("center", _OBB_CENTER), ("half", _OBB_HALF)):
        values, run = _point(text, _scan(chain, text, pos).end())
        pos = run.end(2)
        if len(values) != 3:
            raise TrajectorySyntaxError(f"{key} must be a 3-tuple", pos)
        fields.append(values)
    (yaw,), run = _numbers(text, _scan(_OBB_YAW, text, pos).end(), 1)
    try:
        return ObbValue(OrientedBox3(fields[0], fields[1], yaw)), run.start(3), run[3]
    except ValueError as exc:
        raise TrajectorySyntaxError(str(exc), run.end(2)) from exc


def _parse_string(text: str, pos: int):
    # '"' already read
    m = _STRING_RE.match(text, pos)
    if m is None:
        end = _STRING_BODY_RE.match(text, pos).end()
        if end == len(text):
            raise TrajectorySyntaxError("unterminated string", end)
        # the body stopped at a backslash
        if end + 1 == len(text):
            raise TrajectorySyntaxError("unterminated escape", end + 1)
        raise TrajectorySyntaxError(f"bad escape \\{text[end + 1]}", end + 1)
    body = m[1]
    if "\\" in body:
        body = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], body)
    return Text(body), m.start(2), m[2]


_MAX_VALUE_DEPTH = 32


def _parse_bracket(text: str, pos: int, depth: int):
    """'[' already read.

    A row, a list of plain numbers, is one run of numbers and comes back as
    the tuple of its floats, so that an enclosing bracket can take its rows
    as a matrix; `_value` makes a row that stays alone a list.
    """
    if depth > _MAX_VALUE_DEPTH:
        raise TrajectorySyntaxError("value nesting too deep", pos)
    run = _NUMBERS_RE.match(text, pos)
    if run is not None and run[2] == "]":
        return tuple(_floats(text, run, run[1].split(","))), run.start(3), run[3]
    pos = _WS_RE.match(text, pos).end()
    if text.startswith("]", pos):
        return _delimited(ValueList(()), text, pos + 1)
    items = []
    while True:
        item, pos, delimiter = _parse_item(text, _start(text, pos), depth)
        items.append(item)
        if delimiter != ",":
            break
        pos += 1
    if delimiter != "]":
        raise TrajectorySyntaxError("expected ','", pos)
    if set(map(type, items)) == {tuple} and len(set(map(len, items))) == 1:
        return _delimited(Matrix(tuple(items)), text, pos + 1)
    return _delimited(ValueList(tuple(map(_value, items))), text, pos + 1)


def _delimited(item, text: str, pos: int):
    m = _DELIMITER_RE.match(text, pos)
    return item, m.start(1), m[1]


def _start(text: str, pos: int):
    """The first match of the value at pos."""
    m = _VALUE_RE.match(text, pos)
    if m is None:
        raise TrajectorySyntaxError("expected value", _WS_RE.match(text, pos).end())
    return m


def _parse_item(text: str, m, depth: int):
    """The value whose first match is m (see `_start`).

    Returns (item, offset after the value and its whitespace, delimiter
    there): the item is a Value, or a row of plain numbers as a tuple (see
    `_parse_bracket`); the delimiter is the ',', ')' or ']' at the offset, or
    '' when anything else is there.
    """
    number = m["number"]
    if number is not None:
        value = float(number)
        if not math.isfinite(value):
            raise TrajectorySyntaxError("number out of range", m.end("number"))
        return Scalar(value, m["unit"]), m.start("delimiter"), m["delimiter"]
    opener, pos = m["opener"], m.end()
    if opener == '"':
        return _parse_string(text, pos)
    if opener == "(":
        values, run = _point(text, pos)
        return (Point2(*values) if len(values) == 2 else Point3(*values)), run.start(3), run[3]
    if opener == "[":
        return _parse_bracket(text, pos, depth + 1)
    if opener == "obb(":
        return _parse_obb(text, pos)
    if opener == "px(":
        values, run = _point(text, pos)
        if len(values) != 2:
            raise TrajectorySyntaxError("px(...) takes two components", run.end(2))
        return Point2(values[0], values[1], pixel=True), run.start(3), run[3]
    if opener == "box(":
        return _parse_box(text, pos)
    return _delimited(Choice(m["choice"]), text, pos)


def _value(item) -> Value:
    if type(item) is tuple:
        return ValueList(tuple(Scalar(x) for x in item))
    return item


def parse_value(text: str) -> Value:
    """Parse a standalone value literal; the whole string must be consumed."""
    item, pos, _ = _parse_item(text, _start(text, 0), 0)
    if pos != len(text):
        raise TrajectorySyntaxError("trailing characters after value", pos)
    return _value(item)


def _argument(text: str, pos: int):
    """The first match of a call argument: its name, '=' and its value's start."""
    m = _ARGUMENT_RE.match(text, pos)
    if m is None:  # raise where the name, the '=' or the value is missing
        _start(text, _scan(_ARGUMENT, text, pos).end())
    return m


def _parse_call(text: str, pos: int):
    # '<tool_call>' already read; returns the call and the offset after its end tag
    m = _scan(_CALL_HEAD, text, pos)
    name, pos = m[1], m.end()
    args = []
    if text.startswith(")", pos):
        pos += 1
    else:
        while True:
            m = _argument(text, pos)
            item, pos, delimiter = _parse_item(text, m, 0)
            args.append((m["key"], _value(item)))
            if delimiter != ",":
                break
            pos += 1
        if delimiter != ")":
            raise TrajectorySyntaxError("expected ','", pos)
        pos += 1
    return ToolCall(name, tuple(args)), _scan(_CALL_END, text, pos).end()


def parse_trajectory(text: str) -> Trajectory:
    """Parse trace text into a Trajectory, or raise a positioned error.

    Total over arbitrary input: every string either parses or raises
    TrajectorySyntaxError / OrderingError carrying a character offset.
    """
    if not isinstance(text, str):
        raise TypeError("trajectory text must be str")
    steps = []
    pos = 0
    while True:
        m = _BLOCK_RE.match(text, pos)
        if m is None:
            pos = _WS_RE.match(text, pos).end()
            if pos == len(text):
                raise OrderingError("missing final answer", pos)
            raise TrajectorySyntaxError("expected a tagged block", pos)
        tag, start, pos = m[1], m.start(1), m.end()
        if tag == "<think>":
            end = text.find("</think>", pos)
            if end < 0:
                raise TrajectorySyntaxError("missing '</think>'", pos)
            steps.append(Thought(text[pos:end]))
            pos = end + len("</think>")
        elif tag == "<tool_call>":
            call, pos = _parse_call(text, pos)
            steps.append(call)
        elif tag == "<tool_response>":
            if not steps or not isinstance(steps[-1], ToolCall):
                raise OrderingError("tool_response without a preceding tool_call", start)
            item, pos, _ = _parse_item(text, _start(text, pos), 0)
            pos = _scan(_RESPONSE_END, text, pos).end()
            steps.append(ToolResult(_value(item)))
        else:
            head = _scan(_ANSWER_HEAD, text, pos)
            item, pos, _ = _parse_item(text, _start(text, head.end()), 0)
            pos = _scan(_ANSWER_END, text, pos).end()
            if not steps:
                raise OrderingError("answer must follow at least one step", start)
            steps.append(Answer(_value(item), head[3]))
            if pos != len(text):
                raise OrderingError("content after the final answer", pos)
            return Trajectory(tuple(steps))


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

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
        if "</think>" in s.text:  # the only tag that would end the block early
            raise ValueError("thought text may not contain '</think>'")
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
# Value kinds and numeric payloads
# ---------------------------------------------------------------------------

# kind name -> whether a value is of that kind; tool arguments (see
# runtime.REGISTRY) and answer tags name kinds from this one table
KINDS = {
    "int": lambda v: isinstance(v, Scalar) and not v.unit and v.value == int(v.value),
    "scalar": lambda v: isinstance(v, Scalar),
    "choice": lambda v: isinstance(v, Choice),
    "point2": lambda v: isinstance(v, Point2) and not v.pixel,
    "point3": lambda v: isinstance(v, Point3),
    "box2": lambda v: isinstance(v, Box2Value),
    "pose": lambda v: isinstance(v, Matrix) and v.shape == (4, 4),
    "text": lambda v: isinstance(v, Text),
    "text_list": lambda v: isinstance(v, ValueList) and all(isinstance(x, Text) for x in v.items),
}
# the kinds an answer tag may name; the others are tool-argument kinds only
ANSWER_FORMATS = frozenset({"choice", "scalar", "point2", "point3", "pose", "text"})


def payload(v: Value):
    """(signature, numbers): the structural type signature, and the numbers
    of the value as a flat tuple, or None for a non-numeric value.  Payloads
    compare only within equal signatures, which fix how many numbers there
    are."""
    if isinstance(v, Scalar):
        return ("scalar", v.unit), (v.value,)
    if isinstance(v, Point2):
        return ("point2", v.pixel), (v.x, v.y)
    if isinstance(v, Point3):
        return ("point3",), (v.x, v.y, v.z)
    if isinstance(v, Matrix):
        return ("matrix", v.shape), tuple(x for row in v.rows for x in row)
    if isinstance(v, Box2Value):
        b = v.box
        return ("box2",), (b.umin, b.vmin, b.umax, b.vmax)
    if isinstance(v, ObbValue):
        b = v.box
        return ("obb",), b.center + b.half_extents + (b.yaw,)
    if isinstance(v, ValueList):
        parts = [payload(x) for x in v.items]
        signature = ("list",) + tuple(sig for sig, _ in parts)
        numbers = [numbers for _, numbers in parts]
        if None in numbers:
            return signature, None
        return signature, tuple(chain.from_iterable(numbers))
    if isinstance(v, Choice):
        return ("choice",), None
    if isinstance(v, Text):
        return ("text",), None
    raise TypeError(type(v).__name__)


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
    tag, value = steps[-1].format, steps[-1].value
    if tag not in ANSWER_FORMATS:
        return False
    is_kind = KINDS[tag]
    # a point2 answer may also be a non-empty list of points
    if tag == "point2" and isinstance(value, ValueList) and value.items:
        return all(map(is_kind, value.items))
    return is_kind(value)
