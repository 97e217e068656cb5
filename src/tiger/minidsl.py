"""A sandboxed, loop-free expression language for geometric computations.

Programs are a sequence of let-bindings ending in one result expression:

    let name = expr; ... expr

Expressions cover numeric literals, bracket literals (vectors / matrices /
lists), arithmetic, comparisons, `if cond then a else b`, and a fixed table
of pure builtins.  There are no loops, no recursion, no user functions, and
no access to I/O, clocks, or randomness, so every evaluation halts within a
step budget bounded by the AST size.  See docs/minidsl.md.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import CameraIntrinsics, OrientedBox3, Pose


class DslError(ValueError):
    pass


class DslSyntaxError(DslError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnboundIdentifier(DslError):
    pass


class DivisionByZero(DslError):
    pass


class TypeMismatch(DslError):
    pass


class SingularMatrix(DslError):
    pass


class LimitExceeded(DslError):
    pass


class DomainError(DslError):
    """A numerically infeasible operation (sqrt of a negative, behind camera)."""


@dataclass(frozen=True)
class EvalLimits:
    max_steps: int = 10_000
    max_values: int = 100_000

    def __post_init__(self):
        if self.max_steps <= 0 or self.max_values <= 0:
            raise ValueError("limits must be positive")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|==|!=|[-+*/<>=;,()\[\]])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"let", "if", "then", "else"}

# Parsing is bounded as evaluation is: a program of more tokens than twice the
# default step budget is refused while it is read, before any parse.
_MAX_TOKENS = 2 * EvalLimits.max_steps


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise DslSyntaxError(f"unexpected character {source[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        if len(tokens) == _MAX_TOKENS:
            raise LimitExceeded(f"program has more than {_MAX_TOKENS} tokens")
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (AST nodes are plain tuples: (kind, ...))
# ---------------------------------------------------------------------------


_MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str, known):
        self.tokens = _tokenize(source)
        self.i = 0
        self.scope = set(known)
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, value, pos = self.peek()
        if value != text or kind == "eof" and text != "":
            raise DslSyntaxError(f"expected {text!r}", pos)
        return self.next()

    def parse_program(self):
        lets = []
        while True:
            kind, value, pos = self.peek()
            if kind == "ident" and value == "let":
                self.next()
                nkind, name, npos = self.next()
                if nkind != "ident" or name in _KEYWORDS:
                    raise DslSyntaxError("expected binding name", npos)
                self.expect("=")
                expr = self.parse_expr()
                self.expect(";")
                lets.append((name, expr))
                self.scope.add(name)
            else:
                break
        result = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise DslSyntaxError("trailing tokens after result expression", pos)
        return tuple(lets), result

    def parse_expr(self):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise DslSyntaxError("expression nesting too deep", self.peek()[2])
        try:
            kind, value, pos = self.peek()
            if kind == "ident" and value == "if":
                self.next()
                cond = self.parse_expr()
                kind, value, pos = self.next()
                if value != "then":
                    raise DslSyntaxError("expected 'then'", pos)
                then = self.parse_expr()
                kind, value, pos = self.next()
                if value != "else":
                    raise DslSyntaxError("expected 'else'", pos)
                other = self.parse_expr()
                return ("if", cond, then, other)
            return self.parse_comparison()
        finally:
            self.depth -= 1

    def parse_comparison(self):
        left = self.parse_additive()
        kind, value, pos = self.peek()
        if value in ("<", ">", "<=", ">=", "==", "!="):
            self.next()
            right = self.parse_additive()
            return ("cmp", value, left, right)
        return left

    def parse_additive(self):
        node = self.parse_multiplicative()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = ("bin", op, node, self.parse_multiplicative())
        return node

    def parse_multiplicative(self):
        node = self.parse_unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = ("bin", op, node, self.parse_unary())
        return node

    def parse_unary(self):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise DslSyntaxError("expression nesting too deep", self.peek()[2])
        try:
            if self.peek()[1] == "-":
                self.next()
                return ("neg", self.parse_unary())
            return self.parse_primary()
        finally:
            self.depth -= 1

    def parse_primary(self):
        kind, value, pos = self.next()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise DslSyntaxError("numeric literal out of range", pos)
            return ("num", number)
        if value == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if value == "[":
            items = []
            if self.peek()[1] == "]":
                raise DslSyntaxError("empty bracket literal", self.peek()[2])
            while True:
                items.append(self.parse_expr())
                kind2, value2, pos2 = self.next()
                if value2 == "]":
                    break
                if value2 != ",":
                    raise DslSyntaxError("expected ',' or ']'", pos2)
            return ("list", tuple(items))
        if kind == "ident":
            if value in _KEYWORDS:
                raise DslSyntaxError(f"unexpected keyword {value!r}", pos)
            if self.peek()[1] == "(":
                if value not in BUILTINS:
                    raise DslSyntaxError(f"unknown function {value!r}", pos)
                self.next()
                args = []
                if self.peek()[1] == ")":
                    self.next()
                else:
                    while True:
                        args.append(self.parse_expr())
                        kind2, value2, pos2 = self.next()
                        if value2 == ")":
                            break
                        if value2 != ",":
                            raise DslSyntaxError("expected ',' or ')'", pos2)
                lo, hi, _ = BUILTINS[value]
                if not (lo <= len(args) <= hi):
                    raise DslSyntaxError(
                        f"{value} expects {lo}..{hi} arguments, got {len(args)}", pos
                    )
                return ("call", value, tuple(args))
            if value not in self.scope:
                raise UnboundIdentifier(f"unbound identifier {value!r}")
            return ("var", value)
        raise DslSyntaxError(f"unexpected token {value!r}", pos)


@dataclass(frozen=True)
class Program:
    source: str
    lets: tuple
    result: tuple

    def node_count(self) -> int:
        # an explicit stack, so a long operator chain costs no Python stack
        stack = [expr for _, expr in self.lets] + [self.result]
        count = 0
        while stack:
            node = stack.pop()
            count += 1
            kind = node[0]
            if kind == "neg":
                stack.append(node[1])
            elif kind == "bin" or kind == "cmp":
                stack.extend(node[2:])
            elif kind == "if":
                stack.extend(node[1:])
            elif kind in ("call", "list"):
                stack.extend(node[-1])
            elif kind not in ("num", "var"):
                raise AssertionError(kind)
        return count


def parse_program(source: str, known=()) -> Program:
    """Parse a program; `known` lists externally bound identifiers."""
    parser = _Parser(source, known)
    lets, result = parser.parse_program()
    return Program(source, lets, result)


# ---------------------------------------------------------------------------
# Values and builtins
# ---------------------------------------------------------------------------


def _num(x) -> float:
    if isinstance(x, bool) or not isinstance(x, float):
        raise TypeMismatch(f"expected a number, got {type(x).__name__}")
    return x


def _vec(x, size=None) -> np.ndarray:
    if not (isinstance(x, np.ndarray) and x.ndim == 1):
        raise TypeMismatch("expected a vector")
    if size is not None and x.shape[0] != size:
        raise TypeMismatch(f"expected a {size}-vector, got length {x.shape[0]}")
    return x


def _mat(x, shape=None) -> np.ndarray:
    if not (isinstance(x, np.ndarray) and x.ndim == 2):
        raise TypeMismatch("expected a matrix")
    if shape is not None and x.shape != shape:
        raise TypeMismatch(f"expected a {shape} matrix, got {x.shape}")
    return x


def _obb(x) -> OrientedBox3:
    if not isinstance(x, OrientedBox3):
        raise TypeMismatch("expected an oriented box")
    return x


def _index(x) -> int:
    v = _num(x)
    if not v.is_integer():  # False for inf and nan too
        raise TypeMismatch("index must be integral")
    return int(v)


def _b_matmul(a, b):
    arrays = isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    if not (arrays and a.ndim == 2 and b.ndim in (1, 2)):
        raise TypeMismatch("matmul expects matrix x matrix or matrix x vector")
    if a.shape[1] != b.shape[0]:
        raise TypeMismatch("matmul shape mismatch")
    return geometry.matmul(a, b)


def _b_inv3(a):
    det, inverse = geometry.inv3(_mat(a, (3, 3)))
    if abs(det) < 1e-12:
        raise SingularMatrix("3x3 matrix is singular")
    return inverse


def _b_sqrt(x):
    v = _num(x)
    if v < 0:
        raise DomainError("sqrt of a negative number")
    return math.sqrt(v)


def _b_clamp(x, lo, hi):
    x, lo, hi = _num(x), _num(lo), _num(hi)
    if lo > hi:
        raise DomainError("clamp bounds are inverted")
    return min(max(x, lo), hi)


def _b_argmin(x):
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.size > 0:
        return float(int(np.argmin(x)))
    if isinstance(x, tuple) and x and all(isinstance(v, float) for v in x):
        return float(min(range(len(x)), key=lambda i: x[i]))
    raise TypeMismatch("argmin expects a non-empty list of numbers")


def _intrinsics_from_vec(v) -> CameraIntrinsics:
    data = _vec(v, 6)
    if not np.all(np.isfinite(data[4:])):
        raise TypeMismatch("bad intrinsics vector: width and height must be finite")
    try:
        return CameraIntrinsics(
            fx=float(data[0]),
            fy=float(data[1]),
            cx=float(data[2]),
            cy=float(data[3]),
            width=int(data[4]),
            height=int(data[5]),
        )
    except geometry.GeometryError as exc:
        raise TypeMismatch(f"bad intrinsics vector: {exc}") from exc


def _pose_from_mat(m) -> Pose:
    try:
        return Pose.from_matrix4(_mat(m, (4, 4)))
    except geometry.GeometryError as exc:
        raise TypeMismatch(f"not a rigid pose matrix: {exc}") from exc


def _b_project_point(p, intr, extr):
    point = _vec(p, 3)
    k = _intrinsics_from_vec(intr)
    pose = _pose_from_mat(extr)
    try:
        ip = geometry.project(point, k, pose)
    except geometry.BehindCamera as exc:
        raise DomainError(str(exc)) from exc
    return np.array([ip.u_norm, ip.v_norm])


def _b_unproject_point(p, depth, intr):
    point = _vec(p, 2)
    k = _intrinsics_from_vec(intr)
    try:
        return geometry.unproject(
            float(point[0]) * k.width, float(point[1]) * k.height, _num(depth), k
        )
    except geometry.GeometryError as exc:
        raise DomainError(str(exc)) from exc


def _b_vec(*args):
    return np.array([_num(a) for a in args])


def _b_rotz(theta):
    t = _num(theta)
    if math.isinf(t):  # a nan angle evaluates, to a nan matrix
        raise DomainError("rotz of an infinite angle")
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# name -> (min arity, max arity, implementation); every entry is a pure
# function of its arguments: no I/O, no clock, no randomness.
BUILTINS = {
    "norm": (1, 1, lambda v: geometry.length(_vec(v))),
    "dot": (2, 2, lambda a, b: geometry.sum_of_products(_vec(a), _vec(b, _vec(a).shape[0]))),
    "cross": (2, 2, lambda a, b: np.cross(_vec(a, 3), _vec(b, 3))),
    "matmul": (2, 2, _b_matmul),
    "transpose": (1, 1, lambda a: _mat(a).T.copy()),
    "inv3": (1, 1, _b_inv3),
    "inv_pose": (1, 1, lambda a: geometry.invert(_pose_from_mat(a)).matrix4()),
    "rotz": (1, 1, _b_rotz),
    "abs": (1, 1, lambda x: abs(_num(x))),
    "min": (2, 2, lambda a, b: min(_num(a), _num(b))),
    "max": (2, 2, lambda a, b: max(_num(a), _num(b))),
    "clamp": (3, 3, _b_clamp),
    "sqrt": (1, 1, _b_sqrt),
    "sign": (1, 1, lambda x: float((0.0 < _num(x)) - (_num(x) < 0.0))),
    "atan2": (2, 2, lambda y, x: math.atan2(_num(y), _num(x))),
    "obb_dist": (2, 2, lambda a, b: geometry.obb_distance(_obb(a), _obb(b))),
    "obb_center": (1, 1, lambda b: np.array(_obb(b).center)),
    "obb_half": (1, 1, lambda b: np.array(_obb(b).half_extents)),
    "obb_yaw": (1, 1, lambda b: _obb(b).yaw),
    "project_point": (3, 3, _b_project_point),
    "unproject_point": (3, 3, _b_unproject_point),
    "vec": (2, 4, _b_vec),
    "vec_get": (2, 2, lambda v, i: float(_vec(v)[_check_index(_vec(v), i)])),
    "mat_get": (3, 3, lambda m, i, j: _mat_get(m, i, j)),
    "argmin": (1, 1, _b_argmin),
}


def _check_index(v, i):
    idx = _index(i)
    if not (0 <= idx < v.shape[0]):
        raise TypeMismatch(f"index {idx} out of range for length {v.shape[0]}")
    return idx


def _mat_get(m, i, j):
    mat = _mat(m)
    ri, ci = _index(i), _index(j)
    if not (0 <= ri < mat.shape[0] and 0 <= ci < mat.shape[1]):
        raise TypeMismatch(f"index ({ri}, {ci}) out of range for {mat.shape}")
    return float(mat[ri, ci])


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


class _Evaluator:
    def __init__(self, limits: EvalLimits):
        self.limits = limits
        self.steps = 0
        self.values = 0

    def _tick(self, produced=1):
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise LimitExceeded("step limit exceeded")
        self.values += produced
        if self.values > self.limits.max_values:
            raise LimitExceeded("value limit exceeded")

    def eval(self, node, env):
        kind = node[0]
        if kind == "num":
            self._tick()
            return node[1]
        if kind == "var":
            self._tick()
            try:
                return env[node[1]]
            except KeyError:
                raise UnboundIdentifier(f"unbound identifier {node[1]!r}") from None
        if kind == "neg":
            value = self.eval(node[1], env)
            self._tick()
            if isinstance(value, float):
                return -value
            if isinstance(value, np.ndarray):
                return -value
            raise TypeMismatch("cannot negate this value")
        if kind == "bin":
            # a left-associative chain nests down its left operand; walk that
            # spine with a loop, so its length costs steps but no Python stack
            chain = []
            while node[0] == "bin":
                chain.append(node)
                node = node[2]
            value = self.eval(node, env)
            for _, op, _, right_node in reversed(chain):
                right = self.eval(right_node, env)
                self._tick()
                value = _apply_binop(op, value, right)
            return value
        if kind == "cmp":
            op = node[1]
            left = _num(self.eval(node[2], env))
            right = _num(self.eval(node[3], env))
            self._tick()
            return {
                "<": left < right,
                ">": left > right,
                "<=": left <= right,
                ">=": left >= right,
                "==": left == right,
                "!=": left != right,
            }[op]
        if kind == "if":
            cond = self.eval(node[1], env)
            self._tick()
            if not isinstance(cond, bool):
                raise TypeMismatch("if condition must be a comparison result")
            return self.eval(node[2] if cond else node[3], env)
        if kind == "list":
            items = [self.eval(e, env) for e in node[1]]
            self._tick(produced=len(items))
            if all(isinstance(x, float) for x in items):
                return np.array(items)
            if all(
                isinstance(x, np.ndarray) and x.ndim == 1 for x in items
            ) and len({x.shape[0] for x in items}) == 1:
                return np.stack(items)
            return tuple(items)
        if kind == "call":
            args = [self.eval(a, env) for a in node[2]]
            self._tick()
            result = BUILTINS[node[1]][2](*args)
            if isinstance(result, np.ndarray):
                self.values += result.size
                if self.values > self.limits.max_values:
                    raise LimitExceeded("value limit exceeded")
            return result
        raise AssertionError(kind)


def _apply_binop(op, left, right):
    lnum = isinstance(left, float) and not isinstance(left, bool)
    rnum = isinstance(right, float) and not isinstance(right, bool)
    larr = isinstance(left, np.ndarray) and left.ndim == 1
    rarr = isinstance(right, np.ndarray) and right.ndim == 1
    if op == "+" or op == "-":
        if lnum and rnum:
            return left + right if op == "+" else left - right
        if larr and rarr and left.shape == right.shape:
            return left + right if op == "+" else left - right
        raise TypeMismatch(f"cannot apply {op} to these operands")
    if op == "*":
        if lnum and rnum:
            return left * right
        if lnum and rarr:
            return left * right
        if larr and rnum:
            return left * right
        raise TypeMismatch("cannot multiply these operands")
    if op == "/":
        if rnum:
            if right == 0.0:
                raise DivisionByZero("division by zero")
            if lnum:
                return left / right
            if larr:
                return left / right
        raise TypeMismatch("cannot divide these operands")
    raise AssertionError(op)


def evaluate(program: Program, bindings=None, limits: EvalLimits = EvalLimits()):
    """Evaluate a parsed program with the given external bindings.

    Bindings map names to floats, 1-D / 2-D numpy arrays, or OrientedBox3.
    Deterministic: the result is a pure function of (program, bindings,
    limits).  numpy's floating-point warnings are silenced: an overflow,
    NaN or division by zero shows in the value or its DslError, never as a
    RuntimeWarning on stderr.
    """
    env = {}
    for name, value in (bindings or {}).items():
        env[name] = value
    ev = _Evaluator(limits)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for name, expr in program.lets:
            env[name] = ev.eval(expr, env)
        return ev.eval(program.result, env)


def run(source: str, bindings=None, limits: EvalLimits = EvalLimits()):
    """Parse and evaluate in one step."""
    program = parse_program(source, known=tuple((bindings or {}).keys()))
    return evaluate(program, bindings, limits)
