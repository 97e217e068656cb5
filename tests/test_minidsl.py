import math

import numpy as np
import pytest

import tiger.minidsl
from tiger.geometry import OrientedBox3, Pose, obb_distance, project
from tiger.geometry import CameraIntrinsics
from tiger.minidsl import (
    BUILTINS,
    DivisionByZero,
    DomainError,
    DslError,
    DslSyntaxError,
    EvalLimits,
    LimitExceeded,
    Program,
    SingularMatrix,
    TypeMismatch,
    UnboundIdentifier,
    evaluate,
    parse_program,
    run,
)

from conftest import node_count

EXPECTED_BUILTINS = {
    "norm", "dot", "cross", "matmul", "transpose", "inv3", "inv_pose", "rotz",
    "abs", "min", "max", "clamp", "sqrt", "sign", "atan2",
    "obb_dist", "obb_center", "obb_half", "obb_yaw",
    "project_point", "unproject_point",
    "vec", "vec_get", "mat_get", "argmin",
}

FORBIDDEN_FRAGMENTS = (
    "open", "read", "write", "file", "import", "exec", "eval",
    "time", "clock", "now", "date",
    "rand", "random", "seed", "choice", "shuffle",
    "input", "print", "env", "system", "popen", "socket",
)


class TestParsing:
    def test_single_expression(self):
        program = parse_program("norm(vec(3, 4, 0))")
        assert program.lets == () and program.result[0] == "call"

    def test_let_chain(self):
        program = parse_program("let a = 1; let b = a + 1; b * 2")
        assert [name for name, _ in program.lets] == ["a", "b"]

    def test_unbound_identifier_at_parse(self):
        with pytest.raises(UnboundIdentifier):
            parse_program("let a = 1; a + b")

    def test_known_names_are_in_scope(self):
        parse_program("a + b", known=("a", "b"))

    def test_unknown_function(self):
        with pytest.raises(DslSyntaxError):
            parse_program("launch(1)")

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as info:
            parse_program("1 + $")
        assert info.value.position == 4

    def test_arity_checked_at_parse(self):
        with pytest.raises(DslSyntaxError):
            parse_program("norm(1, 2)")

    def test_trailing_tokens(self):
        with pytest.raises(DslSyntaxError):
            parse_program("1 2")

    def test_deep_nesting_is_a_syntax_error(self):
        for source in ["(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1", "[" * 5000]:
            with pytest.raises(DslSyntaxError):
                parse_program(source)

    def test_nonfinite_literal_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_program("9e999")


class TestEvaluation:
    def test_pythagorean_norm(self):
        assert run("norm(vec(3, 4, 0))") == 5.0

    def test_obb_dist_matches_geometry(self):
        a = OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), 0.0)
        b = OrientedBox3((3, 0, 0), (0.5, 0.5, 0.5), 0.0)
        assert run("obb_dist(a, b)", {"a": a, "b": b}) == obb_distance(a, b) == 2.0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            run("1/0")

    def test_arithmetic_and_vectors(self):
        assert run("let v = vec(1, 2, 3) + vec(1, 1, 1); dot(v, v)") == 2 * 2 + 3 * 3 + 4 * 4
        assert run("2 * 3 - 4 / 2") == 4.0
        assert np.allclose(run("0.5 * vec(2, 4, 6)"), [1, 2, 3])
        assert run("-2 * 3") == -6.0

    def test_comparisons_and_if(self):
        assert run("if 1 < 2 then 10 else 20") == 10.0
        assert run("if 2 <= 1 then 10 else 20") == 20.0
        with pytest.raises(TypeMismatch):
            run("if 1 then 2 else 3")

    def test_matrix_ops(self):
        result = run("matmul([[0, 1], [1, 0]], [[1, 2], [3, 4]])")
        assert np.array_equal(result, [[3, 4], [1, 2]])
        assert np.array_equal(run("transpose([[1, 2], [3, 4]])"), [[1, 3], [2, 4]])
        inv = run("inv3(rotz(0.5))")
        assert np.allclose(inv, run("transpose(rotz(0.5))"))
        with pytest.raises(SingularMatrix):
            run("inv3([[1, 0, 0], [0, 1, 0], [1, 0, 0]])")

    def test_linear_algebra_sums_left_to_right(self):
        rng = np.random.default_rng(83)
        m, n, v = rng.normal(size=(4, 4)), rng.normal(size=(4, 3)), rng.normal(size=4)
        env = {"m": m, "n": n, "v": v}
        rows, cols = m.tolist(), n.T.tolist()

        def dot(a, b):
            return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]

        assert run("matmul(m, n)", env).tolist() == [[dot(r, c) for c in cols] for r in rows]
        assert run("matmul(m, v)", env).tolist() == [dot(r, v.tolist()) for r in rows]
        assert run("dot(v, v)", env) == dot(v.tolist(), v.tolist())
        assert run("norm(v)", env) == math.sqrt(dot(v.tolist(), v.tolist()))
        a = rng.normal(size=(3, 3))
        assert np.allclose(run("inv3(a)", {"a": a}) @ a, np.eye(3), atol=1e-12)

    def test_inv_pose(self):
        rng = np.random.default_rng(81)
        from conftest import random_pose

        pose = random_pose(rng)
        inv = run("inv_pose(m)", {"m": pose.matrix4()})
        assert np.allclose(inv @ pose.matrix4(), np.eye(4), atol=1e-12)
        with pytest.raises(TypeMismatch, match=r"^expected a \(4, 4\) matrix, got \(2, 2\)$"):
            run("inv_pose([[1, 2], [3, 4]])")
        sheared = "[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
        with pytest.raises(TypeMismatch, match="^not a rigid pose matrix: "):
            run(f"inv_pose({sheared})")

    def test_projection_builtins_delegate(self):
        intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        intr_vec = np.array([500.0, 500.0, 320.0, 240.0, 640.0, 480.0])
        extr = Pose.identity().matrix4()
        point = np.array([0.2, -0.1, 2.0])
        got = run(
            "project_point(p, intr, extr)",
            {"p": point, "intr": intr_vec, "extr": extr},
        )
        ip = project(point, intr, Pose.identity())
        assert got[0] == ip.u_norm and got[1] == ip.v_norm
        back = run(
            "unproject_point(q, 2.0, intr)",
            {"q": np.array([ip.u_norm, ip.v_norm]), "intr": intr_vec},
        )
        assert np.allclose(back, point, atol=1e-12)
        with pytest.raises(DomainError):
            run(
                "project_point(vec(0, 0, -1), intr, extr)",
                {"intr": intr_vec, "extr": extr},
            )

    def test_obb_accessors(self):
        box = OrientedBox3((1, 2, 3), (0.1, 0.2, 0.3), 0.4)
        assert np.array_equal(run("obb_center(b)", {"b": box}), [1, 2, 3])
        assert np.array_equal(run("obb_half(b)", {"b": box}), [0.1, 0.2, 0.3])
        assert run("obb_yaw(b)", {"b": box}) == 0.4

    def test_argmin_and_lists(self):
        assert run("argmin([3, 1, 2])") == 1.0
        assert run("vec_get(vec(5, 6, 7), 2)") == 7.0
        assert run("mat_get([[1, 2], [3, 4]], 1, 0)") == 3.0
        with pytest.raises(TypeMismatch):
            run("vec_get(vec(1, 2, 3), 5)")
        with pytest.raises(TypeMismatch):
            run("vec_get(vec(1, 2, 3), 0.5)")

    def test_scalar_builtins(self):
        assert run("clamp(5, 0, 2)") == 2.0
        assert run("sign(-3)") == -1.0 and run("sign(0)") == 0.0
        assert run("atan2(1, 1)") == pytest.approx(math.pi / 4)
        with pytest.raises(DomainError):
            run("sqrt(-1)")

    def test_unbound_at_eval_with_stale_known(self):
        program = parse_program("x + 1", known=("x",))
        with pytest.raises(UnboundIdentifier):
            evaluate(program, {})


# programs whose numbers overflow to infinity or nan where a builtin needs a
# finite one; each must fail as a DslError, which a tool call reports
NON_FINITE_PROGRAMS = {
    "vec_get_inf": "vec_get(vec(1, 2), 1e308 * 10)",
    "vec_get_nan": "vec_get(vec(1, 2), 1e308 * 10 - 1e308 * 10)",
    "mat_get_inf": "mat_get([[1, 2], [3, 4]], 0, 1e308 * 10)",
    "mat_get_nan": "mat_get([[1, 2], [3, 4]], 1e308 * 10 - 1e308 * 10, 0)",
    "rotz_inf": "rotz(1e308 * 10)",
    "rotz_minus_inf": "rotz(-1e308 * 10)",
    "project_point_inf_width": "project_point(vec(0, 0, 1), [500, 500, 320, 240, 1e308 * 10, 480], "
    "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])",
    "unproject_point_nan_height": "unproject_point(vec(0.5, 0.5), 2, "
    "[500, 500, 320, 240, 640, 1e308 * 10 - 1e308 * 10])",
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PROGRAMS))
def test_non_finite_arguments_raise_dsl_errors(case):
    with pytest.raises(DslError):
        run(NON_FINITE_PROGRAMS[case])


def test_nan_angle_still_evaluates():
    assert run("sign(mat_get(rotz(1e308 * 10 - 1e308 * 10), 0, 0))") == 0.0


class TestSandbox:
    def test_builtin_table_is_exactly_the_audited_set(self):
        assert set(BUILTINS) == EXPECTED_BUILTINS

    def test_no_io_clock_or_randomness_names(self):
        for name in BUILTINS:
            lowered = name.lower()
            for fragment in FORBIDDEN_FRAGMENTS:
                assert fragment not in lowered, (name, fragment)

    def test_determinism(self):
        box = OrientedBox3((0.3, 0.4, 0.5), (0.2, 0.3, 0.1), 0.7)
        source = "let d = obb_dist(a, a); let v = vec(1, 2, 3); d + norm(v) * 0.25"
        first = run(source, {"a": box})
        for _ in range(5):
            assert run(source, {"a": box}) == first


class _CountingPattern:
    """A compiled pattern that counts its match calls."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, 0

    def match(self, *args):
        self.matches += 1
        return self.pattern.match(*args)


class TestLimits:
    def test_halts_within_node_count(self):
        sources = [
            "1 + 2 * 3",
            "let a = vec(1, 2, 3); let b = a + a; dot(b, b) / 2",
            "if 1 < 2 then norm(vec(3, 4, 0)) else 0",
            "argmin([3, 1, 2]) + mat_get([[1, 2], [3, 4]], 0, 1)",
        ]
        for source in sources:
            program = parse_program(source)
            budget = node_count(program)
            evaluate(program, {}, EvalLimits(max_steps=budget))

    def test_step_limit_exceeded(self):
        program = parse_program("1 + 2 + 3 + 4 + 5")
        with pytest.raises(LimitExceeded):
            evaluate(program, {}, EvalLimits(max_steps=3))

    @pytest.mark.parametrize("op, value", [("+", 3001.0), ("*", 1.0)])
    def test_long_operator_chain_evaluates(self, op, value):
        # 3,000 operators nest far deeper than Python's recursion limit
        program = parse_program("1" + f" {op} 1" * 3000)
        assert node_count(program) == 6001
        assert evaluate(program) == value

    def test_over_budget_operator_chain_is_limit_exceeded(self):
        with pytest.raises(LimitExceeded, match="^step limit exceeded$"):
            run("1" + " + 1" * 6000)

    def test_long_source_is_refused_before_it_is_parsed(self, monkeypatch):
        # an 800 KB chain would tokenize and parse for over a second before
        # the step budget stopped it; counting the lexer's matches, not the
        # clock, shows it stops reading at the cap
        source = "1" + " + 1" * 200_000
        assert len(source) > 800_000
        counting = _CountingPattern(tiger.minidsl._TOKEN_RE)
        monkeypatch.setattr(tiger.minidsl, "_TOKEN_RE", counting)
        with pytest.raises(LimitExceeded, match="^program has more than 20000 tokens$"):
            parse_program(source)
        # a token and the whitespace before it per step; a full read makes 800,001
        assert counting.matches <= 2 * tiger.minidsl._MAX_TOKENS + 2
        # the same bound refuses tokens in a branch that would not run
        with pytest.raises(LimitExceeded):
            run("if 1 < 2 then 1 else 1" + " + 1" * 10_000)

    def test_chain_keeps_left_to_right_order(self):
        # the division by zero in the second operand fails before the third
        # operand's type mismatch is seen, and each costs its steps in order
        with pytest.raises(DivisionByZero):
            run("1 + 1 / 0 + vec(1, 2)")
        with pytest.raises(TypeMismatch, match="^cannot apply - to these operands$"):
            run("1 - vec(1, 2) + 1 / 0")
        program = parse_program("1 + 2 * 3 - 4")
        for budget in range(1, node_count(program)):
            with pytest.raises(LimitExceeded):
                evaluate(program, {}, EvalLimits(max_steps=budget))
        assert evaluate(program, {}, EvalLimits(max_steps=node_count(program))) == 3.0

    def test_value_limit_exceeded(self):
        program = parse_program("[1, 2, 3, 4, 5, 6, 7, 8]")
        with pytest.raises(LimitExceeded):
            evaluate(program, {}, EvalLimits(max_steps=100, max_values=4))

    def test_limits_validate(self):
        with pytest.raises(ValueError):
            EvalLimits(max_steps=0)
