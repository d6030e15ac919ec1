"""Properties of the shared linear-algebra helpers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from descriptor_minimax import InvalidBounds, InvalidInput
from descriptor_minimax.linalg import (
    DEFAULT_TOL,
    RCOND_FLOOR,
    as_matrix,
    as_vector,
    band_matvec,
    block_diag,
    factor_banded,
    in_span,
    inverse_norm1_estimate,
    as_matrix_stack,
    per_entry,
    require_spd,
    require_spd_stack,
    svd_subspaces,
    symmetrize,
)


def span(a):
    """An orthonormal basis of the column span of ``a``."""
    return svd_subspaces(a).range_basis


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_in_span_holds_on_a_nonsingular_square(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    target = a @ rng.standard_normal(n)
    assert in_span(span(a), target, np.linalg.norm(target))
    assert span(a).shape == (n, n)


def test_in_span_rejects_an_inconsistent_target():
    # [0, 2] is 1 from [1, 1], well beyond MEMBERSHIP_TOL (1 + 2)
    a = np.array([[1.0], [1.0]])
    assert not in_span(span(a), np.array([0.0, 2.0]), 2.0)


def test_in_span_judges_each_target_alone():
    a = np.array([[1.0], [1.0]])
    targets = np.array([[0.0, 1.0], [2.0, 1.0]])
    verdicts = [in_span(span(a), t, np.linalg.norm(t)) for t in targets.T]
    assert verdicts == [False, True]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_in_span_holds_for_column_combinations(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    a = rng.standard_normal((rows, cols))
    target = a @ rng.standard_normal(cols)
    assert in_span(span(a), target, np.linalg.norm(target))


def test_in_span_rejects_an_orthogonal_target():
    cols = np.array([[1.0], [0.0]])
    assert not in_span(span(cols), np.array([0.0, 1.0]), 1.0)
    # an empty basis spans {0} alone
    assert in_span(np.zeros((2, 0)), np.zeros(2), 0.0)
    assert not in_span(np.zeros((2, 0)), np.array([0.0, 1e-6]), 1e-6)


def test_every_membership_verdict_is_in_span():
    # F = Q diag(d) Q' with rank r < n, B = I, C = -I and a static H in
    # range(F'): representable(), the static a priori estimate, the Riccati
    # endpoint filter (whose H = I reads every state) and in_span all test
    # ell against range(F'), on targets 0.3x and 3x the tolerance off it
    # along ker F
    from descriptor_minimax import (
        ContinuousDAE,
        ContinuousEllipsoid,
        StaticEllipsoid,
        StaticModel,
        TimeGrid,
        apriori_estimate,
        representable,
        riccati_filter,
    )
    from descriptor_minimax.linalg import MEMBERSHIP_TOL

    rng = np.random.default_rng(44)
    grid = TimeGrid(0.0, 1.0, 4)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(0, n))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        d = np.concatenate([rng.uniform(0.5, 2.0, r), np.zeros(n - r)])
        F = (Q * d) @ Q.T
        H = F[:1] if r else np.zeros((1, n))
        model, bounds = StaticModel(F=F, B=np.eye(n), H=H), StaticEllipsoid(np.eye(n), [[1.0]])
        system = ContinuousDAE(F=F, C=-np.eye(n), H=np.eye(n), t_start=0.0, t_end=1.0)
        weights = ContinuousEllipsoid(Q0=np.eye(n), Q1=np.eye(n), Q2=np.eye(n))
        y = np.zeros((5, n))
        rows = span(np.hstack([F.T, H.T]))
        for size in (0.0, 1e-3, 1.0, 1e3) if r else (0.0,):
            member = F.T @ rng.standard_normal(n)
            member *= size / np.linalg.norm(member) if r else 0.0
            for factor in (0.3, 3.0):
                ell = member + factor * MEMBERSHIP_TOL * (1.0 + size) * Q[:, -1]
                verdicts = [
                    representable(model, ell),
                    apriori_estimate(model, bounds, ell).feasible,
                    riccati_filter(system, weights, ell, y, grid).feasible,
                    in_span(rows, ell, np.linalg.norm(ell)),
                ]
                assert verdicts == 4 * [factor < 1.0], (n, r, size, factor)


def test_membership_tolerance_is_read_by_in_span_alone():
    # one function decides range membership: no other code of the package
    # imports or reads MEMBERSHIP_TOL
    import ast
    from pathlib import Path

    import descriptor_minimax

    readers = []
    for path in sorted(Path(descriptor_minimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]:
            body = fn.body if fn is not tree else [
                node for node in tree.body if not isinstance(node, ast.FunctionDef)
            ]
            for node in (inner for stmt in body for inner in ast.walk(stmt)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name == "MEMBERSHIP_TOL":
                    readers.append((path.name, getattr(fn, "name", None)))
    assert sorted(set(readers)) == [("linalg.py", "in_span")]


def test_svd_subspaces_orthonormal_and_complementary():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    sub = svd_subspaces(a)
    assert sub.rank == 2
    assert sub.range_basis.shape == (5, 2)
    assert sub.range_complement.shape == (5, 3)
    assert sub.kernel_basis.shape == (4, 2)
    eye2 = np.eye(2)
    assert np.allclose(sub.range_basis.T @ sub.range_basis, eye2, atol=1e-12)
    assert np.allclose(
        sub.range_complement.T @ sub.range_basis, np.zeros((3, 2)), atol=1e-12
    )
    assert np.linalg.norm(a @ sub.kernel_basis) <= 1e-12
    assert np.linalg.norm(sub.range_complement.T @ a) <= 1e-12


def test_require_spd_rejects_asymmetric():
    with pytest.raises(InvalidBounds):
        require_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), "Q")


def test_require_spd_rejects_indefinite():
    with pytest.raises(InvalidBounds):
        require_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), "Q")


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        as_matrix([[np.nan]], "F")
    with pytest.raises(InvalidInput):
        as_vector([np.inf], "ell")


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(InvalidInput):
        as_matrix([1.0, 2.0], "F")
    with pytest.raises(InvalidInput):
        as_vector([[1.0]], "ell")


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == pytest.approx(1.0)


@pytest.mark.parametrize("a", [np.diag([1e308, 1.0]), [[1.5e308, 1e308], [1e308, 1.5e308]]])
def test_symmetrize_does_not_overflow(a):
    # (a + a')/2 summed whole turns entries above ~9e307 into inf, and
    # require_spd then Cholesky-tests an infinite copy
    s = symmetrize(np.array(a))
    assert np.isfinite(s).all() and np.array_equal(s, np.array(a))
    assert np.array_equal(require_spd(a, "Q"), np.array(a))


def _to_band(a, kl, ku):
    """LAPACK dgbtrf storage of the band part of a square matrix."""
    dim = a.shape[0]
    band = np.zeros((2 * kl + ku + 1, dim))
    for i in range(dim):
        for j in range(max(0, i - kl), min(dim, i + ku + 1)):
            band[kl + ku + i - j, j] = a[i, j]
    return band


def _random_band(rng, dim, kl, ku, symmetric=False):
    a = rng.standard_normal((dim, dim))
    if symmetric:
        a = a + a.T
    rows, cols = np.indices(a.shape)
    return np.where((rows - cols <= kl) & (cols - rows <= ku), a, 0.0)


def test_block_diag_is_byte_identical_to_scipy():
    # Mixed shapes with zero-row and zero-column blocks, integer and float
    # dtypes; a stack argument lays out its matrices one after another.
    rng = np.random.default_rng(8)
    shapes = [(2, 2), (0, 3), (1, 4), (3, 0), (0, 0), (2, 1), (1, 1)]
    for trial in range(40):
        picks = rng.integers(0, len(shapes), size=int(rng.integers(1, 9)))
        blocks = [rng.standard_normal(shapes[i]) for i in picks]
        if trial % 4 == 0:
            blocks[0] = rng.integers(-5, 5, size=blocks[0].shape)
        expected = scipy.linalg.block_diag(*blocks)
        got = block_diag(*blocks)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    for count, shape in ((401, (2, 2)), (5, (0, 2)), (5, (2, 0)), (0, (3, 3))):
        stack = rng.standard_normal((count, *shape))
        head = rng.standard_normal((1, 3))
        expected = scipy.linalg.block_diag(head, *stack, head)
        assert block_diag(head, stack, head).tobytes() == expected.tobytes()
        assert block_diag(head, stack, head).shape == expected.shape
    assert block_diag().shape == (0, 0)


def test_band_matvec_matches_dense():
    rng = np.random.default_rng(5)
    for dim, kl, ku in ((1, 0, 0), (7, 2, 1), (12, 5, 5), (9, 0, 3)):
        a = _random_band(rng, dim, kl, ku)
        x = rng.standard_normal((dim, 3))
        assert band_matvec(_to_band(a, kl, ku), kl, ku, x) == pytest.approx(a @ x)


def test_inverse_norm_estimate_is_a_close_lower_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        dim = int(rng.integers(1, 30))
        a = rng.standard_normal((dim, dim)) + 0.5 * np.eye(dim)
        inv = np.linalg.inv(a)
        exact = np.abs(inv).sum(axis=0).max()
        est = inverse_norm1_estimate(lambda v: inv @ v, lambda v: inv.T @ v, dim)
        assert est <= exact * (1 + 1e-12)
        assert est >= exact / 10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, DEFAULT_TOL, 1e-3, 0.1]),
)
def test_banded_factor_rejects_what_least_squares_truncates(seed, dim, gap):
    # A symmetric band matrix shifted to put one eigenvalue at
    # gap * sigma_max: its smallest singular value is set by the shift
    rng = np.random.default_rng(seed)
    kl = ku = int(rng.integers(0, 4))
    a = _random_band(rng, dim, kl, ku, symmetric=True)
    eig = np.linalg.eigvalsh(a)
    j = int(rng.integers(dim))
    a = a - eig[j] * np.eye(dim)
    s = np.linalg.svd(a, compute_uv=False)
    a = a + gap * s[0] * np.eye(dim)
    s = np.linalg.svd(a, compute_uv=False)
    factor = factor_banded(_to_band(a, kl, ku), kl, ku)
    b = rng.standard_normal((dim, 2))
    if s[-1] <= DEFAULT_TOL * s[0]:
        assert not factor.regular
        assert factor.solve(b) is None
    if factor.regular:
        assert factor.rcond >= RCOND_FLOOR
        # norm estimates never exceed the truth, so neither does the
        # condition estimate
        inv = np.linalg.inv(a)
        cond = max(
            np.abs(a).sum(axis=0).max() * np.abs(inv).sum(axis=0).max(),
            np.abs(a).sum(axis=1).max() * np.abs(inv).sum(axis=1).max(),
        )
        assert factor.rcond >= (1 - 1e-9) / cond
        x = factor.solve(b)
        assert x is not None
        assert x == pytest.approx(np.linalg.solve(a, b), rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Batched stacks


def _spd_stack(count, size=2):
    rng = np.random.default_rng(count)
    a = rng.standard_normal((count, size, size))
    return a @ np.swapaxes(a, 1, 2) + 0.3 * np.eye(size)


def test_as_matrix_stack_is_read_only_and_keeps_broadcasts():
    source = _spd_stack(5)
    stack = as_matrix_stack(source, "F_seq")
    assert stack.shape == (5, 2, 2) and not stack.flags.writeable
    source[0, 0, 0] = 99.0  # the stack holds its own copy
    assert stack[0, 0, 0] != 99.0
    with pytest.raises(ValueError):
        stack[0][0, 0] = 1.0
    shared = as_matrix_stack(np.broadcast_to(np.eye(2), (1000, 2, 2)), "C_seq")
    assert shared.strides[0] == 0
    assert as_matrix_stack((), "B_seq").shape == (0, 0, 0)


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "Q[3] contains non-finite entries"),
        (np.ones(2), "Q[3] must be 2-D"),
        (np.eye(3), "Q[3] has shape (3, 3), expected (2, 2)"),
    ],
)
def test_as_matrix_stack_names_the_first_bad_entry(entry, message):
    entries = list(_spd_stack(6))
    entries[3] = entry
    entries[5] = entry
    with pytest.raises(InvalidInput) as err:
        as_matrix_stack(entries, "Q")
    assert message in str(err.value)


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.diag([1.0, -1.0]), "Q1_seq[17] is not positive definite"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "Q1_seq[17] is not symmetric"),
    ],
)
def test_require_spd_stack_names_the_first_bad_entry(entry, message):
    stack = _spd_stack(40)
    stack[17] = entry
    stack[30] = entry
    with pytest.raises(InvalidBounds) as err:
        require_spd_stack(stack, "Q1_seq")
    assert str(err.value) == message


def test_require_spd_stack_agrees_with_per_entry_checks():
    rng = np.random.default_rng(11)
    for _ in range(200):
        stack = rng.standard_normal((6, 3, 3))
        stack = 0.5 * (stack + np.swapaxes(stack, 1, 2)) + rng.uniform(0, 4) * np.eye(3)
        if rng.random() < 0.3:
            stack[int(rng.integers(6))] += 1e-6 * np.triu(np.ones((3, 3)), 1)
        expected = None
        for i, q in enumerate(stack):
            try:
                require_spd(q, f"Q[{i}]")
            except InvalidBounds as exc:
                expected = str(exc)
                break
        try:
            require_spd_stack(stack, "Q")
            got = None
        except InvalidBounds as exc:
            got = str(exc)
        assert got == expected


def test_require_spd_stack_checks_a_broadcast_once(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    require_spd_stack(np.broadcast_to(2.0 * np.eye(2), (10_000, 2, 2)), "Q2_seq")
    assert calls == [(1, 2, 2)]
    with pytest.raises(InvalidBounds, match=r"Q2_seq\[0\] is not positive definite"):
        require_spd_stack(np.broadcast_to(-np.eye(2), (10_000, 2, 2)), "Q2_seq")


def test_per_entry_runs_once_on_broadcast_stacks():
    shapes = []

    def inverse_and_trace(a, b):
        shapes.append(a.shape)
        return np.linalg.inv(a @ b), np.trace(a, axis1=1, axis2=2)

    a = np.broadcast_to(2.0 * np.eye(3), (500, 3, 3))
    inv, trace = per_entry(inverse_and_trace, a, a)
    assert shapes == [(1, 3, 3)] and inv.shape == (500, 3, 3) and inv.strides[0] == 0
    assert inv[123] == pytest.approx(0.25 * np.eye(3)) and trace.shape == (500,)
    varying = np.array(a)
    inv, _ = per_entry(inverse_and_trace, varying, a)
    assert shapes[-1] == (500, 3, 3) and inv.strides[0] != 0


# ---------------------------------------------------------------------------
# one tolerance table


def test_no_function_takes_a_tolerance():
    # Every rank, residual and breakdown decision reads a named constant
    # of linalg; no public function takes a tolerance argument
    import inspect

    import descriptor_minimax
    from descriptor_minimax import discrete, filtering, linalg

    callables = [getattr(descriptor_minimax, name) for name in descriptor_minimax.__all__]
    callables += [
        discrete.horizon_saddle,
        filtering.prepare_filter,
        linalg.check_energy,
        linalg.factor_banded,
        linalg.factor_spd_banded,
        linalg.in_span,
        linalg.inverse_norm1_estimate,
        linalg.invertible,
        linalg.nonnegative_mse,
        linalg.svd_subspaces,
    ]
    checked = 0
    for fn in callables:
        if not callable(fn) or (isinstance(fn, type) and issubclass(fn, BaseException)):
            continue
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        assert "tol" not in params, fn.__qualname__
        checked += 1
    assert checked >= 40


def test_tolerance_table_matches_the_constants():
    # README's "Tolerances" table has one row per float constant of
    # linalg, with its value, and names no other constant. Every decision
    # is relative to a scale of the problem: the one absolute row is the
    # sampler's floor under such a scale
    import re
    from pathlib import Path

    from descriptor_minimax import linalg

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    table, absolute = {}, set()
    for line in section.splitlines():
        cells = line.split("|")
        names = re.findall(r"`([A-Z][A-Z0-9_]*)`", cells[1]) if len(cells) > 2 else []
        values = [float(v) for v in cells[2].split(",")] if names else []
        assert len(values) == len(names), line
        table.update(zip(names, values))
        if names and cells[4].strip() == "absolute":
            absolute.update(names)
    constants = {
        name: value
        for name, value in vars(linalg).items()
        if name.isupper() and isinstance(value, float)
    }
    assert table == constants
    assert absolute == {"CURVATURE_SCALE_FLOOR"}


def test_every_tolerance_is_read():
    # A constant of linalg that no code in src/ reads (an import is no
    # read) is an orphan: its decision is gone, and so should it be
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    tree = ast.parse((src / "descriptor_minimax" / "linalg.py").read_text(encoding="utf-8"))
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    assert "RCOND_FLOOR" in constants
    read = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(constants - read) == []
