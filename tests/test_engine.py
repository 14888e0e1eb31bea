"""Tape engine: every primitive against central finite differences, plus the
contract of the checkpointed chain-gradient oracle in chaingrads.py
(equality with the whole tape, bitwise replay, constant retention per
step) that the discrete adjoint is held to."""

import gc
import itertools
import operator

import numpy as np
import pytest

import steplab.engine as en
from chaingrads import checkpointed_chain_grad


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array/scalar x."""
    x = np.asarray(x, dtype=np.float64).copy()
    if x.ndim == 0:
        return (f(x + eps) - f(x - eps)) / (2 * eps)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = f(x)
        flat[i] = keep - eps
        fm = f(x)
        flat[i] = keep
        gf[i] = (fp - fm) / (2 * eps)
    return g


def taped_grad(f, x):
    tape = en.Tape()
    xv = tape.leaf(x)
    return tape.backward([(f(xv), 1.0)], [xv])[0]


def check_op(f, x, eps=1e-6, tol=1e-6):
    got = taped_grad(f, x)
    want = fd_grad(lambda v: float(en.data_of(f(v))), x, eps)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


W = np.array([0.7, -1.3, 0.4])  # fixed weights make per-element errors visible
X = np.array([0.3, -0.8, 1.7])


def w_total(y):
    """W . y, so per-element errors show; a row-wise op's scalar as it is."""
    return np.vecdot(W, y) if np.ndim(en.data_of(y)) else y


def weighted(op):
    return lambda *xs: w_total(op(*xs))


def wsum(w, m):
    """sum_ij w_ij m_ij of (B, d) rows, through two row-wise dots."""
    return np.vecdot(np.ones(w.shape[0]), np.vecdot(w, m))


UNARY_CASES = [
    ("neg", np.negative, X),
    ("exp", np.exp, X),
    ("expm1", np.expm1, X),
    ("log", np.log, np.array([0.2, 1.1, 3.0])),
    ("sqrt", np.sqrt, np.array([0.5, 1.0, 4.2])),
    ("rcumsum", en.rcumsum, X[:2]),  # 2 entries, 3 suffix sums
]


@pytest.mark.parametrize("name,op,x", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_ops_match_fd(name, op, x):
    check_op(weighted(op), x)


def test_clamp_grad_passes_through_inside_only():
    # a bound that x meets passes the gradient, at 0 and at 1
    x = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
    w = np.array([0.7, -1.3, 0.4, 0.9, -0.6])
    g = taped_grad(
        lambda v: np.vecdot(w, np.minimum(np.maximum(v, 0.0), 1.0)), x)
    np.testing.assert_allclose(g, [0.0, w[1], w[2], w[3], 0.0])


@pytest.mark.parametrize("op", [np.maximum, np.minimum],
                         ids=["maximum", "minimum"])
def test_extremum_gradient_at_a_tie_goes_to_one_value(op):
    """At a tie with a constant, in either slot, the Value takes the whole
    adjoint; with a Value in both slots, the first takes it, once."""
    x = np.array([0.5, 1.0, 1.5])
    took = (x >= 1.0) if op is np.maximum else (x <= 1.0)
    for f in (lambda v: op(v, 1.0), lambda v: op(1.0, v)):
        np.testing.assert_array_equal(taped_grad(weighted(f), x), W * took)
    np.testing.assert_array_equal(taped_grad(weighted(lambda v: op(v, v)), x),
                                  W)


BINARY_CASES = [
    ("add", np.add),
    ("sub", np.subtract),
    ("mul", np.multiply),
    ("div", np.divide),
    ("maximum", np.maximum),
    ("minimum", np.minimum),
    ("vecdot", np.vecdot),
]


@pytest.mark.parametrize("name,op", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_ops_match_fd_both_slots(name, op):
    a = np.array([0.4, -1.2, 2.5])
    b = np.array([1.3, 0.7, -0.6])
    check_op(weighted(lambda x: op(x, b)), a)
    check_op(weighted(lambda x: op(a, x)), b)
    check_op(weighted(lambda ab: op(ab[0], ab[1])), np.stack([a, b]))


def test_scalar_array_broadcast_reduces_adjoint():
    a = np.array([1.0, 2.0, 3.0])
    check_op(lambda s: np.vecdot(W, s * a), 0.7)
    check_op(lambda s: np.vecdot(W, a + s), -0.3)


def test_row_broadcast_reduces_adjoint():
    rows = np.array([[0.4, -1.2, 2.5], [1.3, 0.7, -0.6]])
    vec = np.array([0.9, -0.3, 1.1])
    weights = np.array([[0.7, -1.3, 0.4], [0.2, 0.5, -0.8]])
    for op in (np.add, np.subtract, np.multiply, np.divide, np.maximum,
               np.minimum):
        check_op(lambda m: wsum(weights, op(m, vec)), rows)
        check_op(lambda v: wsum(weights, op(rows, v)), vec)
    check_op(lambda s: wsum(weights, s * rows), 0.7)
    check_op(lambda m: wsum(weights, 0.7 * m), rows)
    # vecdot's adjoint of the broadcast vector sums over the rows
    check_op(lambda m: np.vecdot(weights[:, 0], np.vecdot(m, vec)), rows)
    check_op(lambda v: np.vecdot(weights[:, 0], np.vecdot(rows, v)), vec)


def test_unbroadcastable_shapes_rejected():
    tape = en.Tape()
    with pytest.raises(en.EngineError,
                       match=r"^add: shape mismatch \(2,\) vs \(3,\)$"):
        np.add(tape.leaf(np.ones(2)), np.ones(3))
    with pytest.raises(en.EngineError,
                       match=r"^vecdot: shape mismatch \(3,\) vs \(2,\)$"):
        np.vecdot(np.ones(3), tape.leaf(np.ones(2)))
    assert len(tape) == 2  # the two leaves alone


@pytest.mark.parametrize("call", [
    lambda v, buf: np.sin(v),
    lambda v, buf: np.add.reduce(v),
    lambda v, buf: np.add.accumulate(v),
    lambda v, buf: np.add(v, 1.0, out=buf),
    lambda v, buf: operator.iadd(v, 1.0),
    lambda v, buf: np.equal(v, v, out=buf),
], ids=["sin", "reduce", "accumulate", "out", "in_place", "equal_out"])
def test_ufunc_calls_off_the_table_refuse_a_value(call):
    """Another ufunc, a ufunc method or a keyword raises TypeError rather
    than return plain numbers that drop the tape.  So does an in-place
    operator, which would write into an array cold but rebind a Value."""
    tape = en.Tape()
    v = tape.leaf(X)
    with pytest.raises(TypeError):
        call(v, np.zeros(3))
    assert len(tape) == 1


def test_value_keeps_its_identity():
    """== and != compare identities, an array on either side included, and
    taping nothing; a Value is hashable and has no order."""
    tape = en.Tape()
    v, w = tape.leaf(X), tape.leaf(X)
    assert hash(v) == hash(v) and len({v, w}) == 2
    assert v == v and not v != v and v != w
    assert v in [v] and v not in [w] and v in [X, v]
    assert not v == X and v != X and not X == v and X != v
    assert len(tape) == 2
    with pytest.raises(TypeError):
        v < v


def test_operator_overloads_and_reflected_forms():
    tape = en.Tape()
    x = tape.leaf(2.0)
    y = 1.0 + x * 3.0 - 4.0 / x + (-x) + x * x
    g = tape.backward([(y, 1.0)], [x])[0]
    # d/dx (1 + 3x - 4/x - x + x^2) = 3 + 4/x^2 - 1 + 2x
    assert abs(g - (3 + 1 - 1 + 4)) < 1e-12


def test_dot_norm_matches_fd():
    x = np.array([0.9, -0.4, 0.2])
    check_op(lambda v: np.vecdot(v, v), x)


def test_index_matches_fd():
    check_op(lambda v: en.index(v, 1), X)


def test_rcumsum_ends_with_the_empty_suffix():
    x = np.array([0.3, 1e-17, 2.0, 5.0])
    got = en.rcumsum(x)
    np.testing.assert_array_equal(got[:-1], np.cumsum(x[::-1])[::-1])
    assert got.shape == (5,) and got[-1] == 0.0


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv],
                         ids=["add", "sub", "mul", "div"])
def test_ndarray_left_operand_keeps_the_tape(op):
    arr = np.array([1.5, -0.5, 2.0])
    tape = en.Tape()
    assert isinstance(op(arr, tape.leaf(X)), en.Value)
    check_op(lambda v: np.vecdot(W, op(arr, v)), X)


def test_stack_mixed_parents():
    def f(v):
        s = en.stack([en.index(v, 0), 2.5, en.index(v, 2)])  # constant slot
        return np.vecdot(W, s)
    check_op(f, X)

    # rows (B,) and a broadcast scalar slot pack into (B, K)
    rows = np.array([[0.3, -0.8], [1.7, 0.2]])

    def g(m):
        s = en.stack([en.index(m, (Ellipsis, 0)), en.index(m, (1, 1)),
                      en.index(m, (Ellipsis, 1))])
        return np.vecdot(np.ones(2), np.vecdot(np.array([0.7, -1.3, 0.4]), s))
    check_op(g, rows)


def test_index_repeated_array_index_adds_adjoints():
    # entry 0 is read three times, so its gradient sums three weights
    w = np.array([0.5, -1.0, 2.0, 0.3])
    check_op(lambda v: np.vecdot(w, en.index(v, np.array([0, 0, 2, 0]))), X)
    np.testing.assert_array_equal(
        taped_grad(lambda v: np.vecdot(np.ones(2), en.index(v, [1, 1])), X),
        [0.0, 2.0, 0.0])
    rows = np.array([[0.3, -0.8], [1.7, 0.2]])
    check_op(lambda m: wsum(
        np.array([[0.7, -1.3], [0.4, 0.9], [-0.2, 0.6]]),
        en.index(m, (np.array([1, 1, 0]), slice(None)))), rows)


LC_ROW = np.array([0.7, -1.2, 0.4])
LC_ARRAYS = (np.array([[0.4, -1.2], [2.5, 0.3]]),
             np.array([[1.3, 0.7], [-0.6, 0.2]]),
             np.array([[-0.9, 0.1], [0.8, -1.5]]))
LC_W = np.array([[0.7, -1.3], [0.2, 0.5]])


@pytest.mark.parametrize("slot", range(4), ids=["row", "a0", "a1", "a2"])
def test_lincomb_matches_fd_in_every_slot(slot):
    args = [LC_ROW, *LC_ARRAYS]

    def f(v):
        live = args[:slot] + [v] + args[slot + 1:]
        return wsum(LC_W, en.lincomb(live[0], tuple(live[1:])))

    check_op(f, args[slot])


def test_lincomb_sums_left_to_right_and_checks_its_row():
    a, b, c = LC_ARRAYS
    r = LC_ROW
    np.testing.assert_array_equal(en.lincomb(r, LC_ARRAYS),
                                  r[0] * a + r[1] * b + r[2] * c)
    with pytest.raises(en.EngineError, match="lincomb"):
        en.lincomb(r, LC_ARRAYS[:2])


def test_fanout_accumulates():
    tape = en.Tape()
    x = tape.leaf(1.5)
    y = x * x + np.exp(x) * x  # x used three times
    g = tape.backward([(y, 1.0)], [x])[0]
    want = 2 * 1.5 + np.exp(1.5) * (1 + 1.5)
    assert abs(g - want) < 1e-12


def test_unused_leaf_gets_zeros():
    tape = en.Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    z = tape.leaf(np.array([3.0, 4.0]))
    g = tape.backward([(np.vecdot(x, np.ones(2)), 1.0)], [x, z])
    np.testing.assert_array_equal(g[1], np.zeros(2))


PRIMITIVES = [
    ("neg", np.negative, (X,)), ("exp", np.exp, (X,)),
    ("expm1", np.expm1, (X,)), ("log", np.log, (np.abs(X),)),
    ("sqrt", np.sqrt, (np.abs(X),)),
    ("clamp", lambda x: np.minimum(np.maximum(x, 0.0), 1.0), (X,)),
    ("add", np.add, (X, W)), ("sub", np.subtract, (X, W)),
    ("mul", np.multiply, (X, W)), ("div", np.divide, (X, W)),
    ("maximum", np.maximum, (X, W)), ("minimum", np.minimum, (X, W)),
    ("dot", np.vecdot, (X, W)),
    ("stack", lambda *xs: en.stack(xs), (0.5, X, W)),
    ("index", lambda x: en.index(x, 1), (X,)),
    ("lincomb", lambda r, a, b: en.lincomb(r, (a, b)),
     (np.array([0.5, -2.0]), X, W)),
    ("rcumsum", en.rcumsum, (X,)),
    ("record", lambda *xs: en.record(1.0, xs, None, "op"), (X, W)),
]


def test_cold_path_returns_plain_numpy():
    for name, op, args in PRIMITIVES:
        out = op(*args)
        assert not isinstance(out, en.Value), name
        tape = en.Tape()
        hot = op(*(tape.leaf(a) for a in args))
        assert isinstance(hot, en.Value), name
        assert np.array_equal(out, hot.data), name  # bitwise: same numpy calls


def test_cold_lincomb_checks_its_row():
    # the plain-numpy early return comes after the row-shape check
    with pytest.raises(en.EngineError,
                       match=r"lincomb: row shape \(3,\) for 2 arrays"):
        en.lincomb(LC_ROW, LC_ARRAYS[:2])
    with pytest.raises(en.EngineError,
                       match=r"lincomb: row shape \(1, 3\) for 3 arrays"):
        en.lincomb(LC_ROW[None], LC_ARRAYS)
    with pytest.raises(en.EngineError,
                       match=r"lincomb: row of 3 floats for 2 arrays"):
        en.lincomb(LC_ROW.tolist(), LC_ARRAYS[:2])


def test_lincomb_takes_a_float_row_as_its_array():
    """A list of Python floats, as a grid's prebuilt step row holds it,
    gives the array row's bits, cold and taped."""
    row = LC_ROW.tolist()
    assert en.lincomb(row, LC_ARRAYS).tobytes() == \
        en.lincomb(LC_ROW, LC_ARRAYS).tobytes()
    tape = en.Tape()
    live = [tape.leaf(a) for a in LC_ARRAYS]
    out = en.lincomb(row, live)
    grads = tape.backward([(out, LC_W)], live)
    assert out.data.tobytes() == en.lincomb(LC_ROW, LC_ARRAYS).tobytes()
    for g, c in zip(grads, row):
        assert g.tobytes() == (c * LC_W).tobytes()


@pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 1 + 3, 3)],
                         ids=["row", "batch", "tangents"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_plain_float_row_gives_the_generic_sum(k, shape):
    """A list row over plain arrays, the untaped path, gives the bits of an
    array row, of the taped path and of the left-to-right sum, on a row, a
    batch and tangent-stacked slots; a length mismatch still raises."""
    g = np.random.default_rng(k)
    arrays = tuple(g.standard_normal(shape) for _ in range(k))
    row = g.standard_normal(k)
    got = en.lincomb(row.tolist(), arrays)
    assert type(got) is np.ndarray and got.shape == shape
    assert got.tobytes() == en.lincomb(row, arrays).tobytes()
    taped = en.lincomb(en.Tape().leaf(row), arrays)
    assert type(taped) is en.Value
    assert got.tobytes() == taped.data.tobytes()
    want = row.tolist()[0] * arrays[0]
    for c, a in zip(row.tolist()[1:], arrays[1:]):
        want = want + c * a
    assert got.tobytes() == want.tobytes()
    with pytest.raises(en.EngineError,
                       match=f"lincomb: row of {k} floats for {k + 1} arrays"):
        en.lincomb(row.tolist(), arrays + (arrays[0],))


def test_float_row_over_a_taped_array_records_one_op():
    tape = en.Tape()
    live = tape.leaf(LC_ARRAYS[1])
    out = en.lincomb(LC_ROW.tolist(), (LC_ARRAYS[0], live, LC_ARRAYS[2]))
    assert type(out) is en.Value
    assert len(tape) == 2 and tape._names[-1] == "lincomb"
    assert out.data.tobytes() == en.lincomb(LC_ROW, LC_ARRAYS).tobytes()


def test_cold_index_repeated_array_index():
    i = np.array([0, 0, 2, 0])
    out = en.index(X, i)
    assert not isinstance(out, en.Value)
    np.testing.assert_array_equal(out, X[i])
    m = np.arange(6.0).reshape(3, 2)
    rows = (np.array([1, 1, 0]), slice(None))
    np.testing.assert_array_equal(en.index(m, rows), m[rows])


def test_repeated_backward_same_tape():
    tape = en.Tape()
    x = tape.leaf(np.array([1.0, 2.0, 3.0]))
    y = np.vecdot(x, x)
    g1 = tape.backward([(y, 1.0)], [x])[0]
    g2 = tape.backward([(y, 1.0)], [x])[0]
    np.testing.assert_array_equal(g1, g2)


def test_taped_ops_leave_no_reference_cycles():
    # a VJP that held its operand Values would close the cycle
    # Value -> tape -> VJP -> Value, and every tape would then wait for the
    # cycle collector instead of being freed when its last Value goes
    gc.collect()
    gc.disable()
    try:
        for name, op, args in PRIMITIVES:
            tape = en.Tape()
            op(*(tape.leaf(a) for a in args))
        del tape
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mixed_tapes_rejected():
    # every op with more than one operand, each pair of operands split
    t1, t2 = en.Tape(), en.Tape()
    for name, op, args in PRIMITIVES:
        for i, k in itertools.combinations(range(len(args)), 2):
            mixed = list(args)
            mixed[i], mixed[k] = t1.leaf(args[i]), t2.leaf(args[k])
            with pytest.raises(en.EngineError, match="different tapes"):
                op(*mixed)


def test_seed_shape_mismatch_rejected():
    tape = en.Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    with pytest.raises(en.EngineError, match="shape"):
        tape.backward([(x, np.zeros(3))], [x])


def test_foreign_seed_and_leaf_rejected():
    t1, t2 = en.Tape(), en.Tape()
    x = t1.leaf(1.0)
    y = t2.leaf(1.0)
    with pytest.raises(en.EngineError):
        t1.backward([(y, 1.0)], [y])
    with pytest.raises(en.EngineError):
        t1.backward([(x, 1.0)], [y])


def test_nonfinite_adjoint_names_the_op():
    tape = en.Tape()
    x = tape.leaf(0.0)
    v = np.expm1(x)         # 0, recorded as op "expm1"
    y = np.sqrt(v)          # d/dv is inf at 0, so the expm1 node gets inf
    with np.errstate(divide="ignore"), \
            pytest.raises(en.EngineError,
                          match=r"non-finite adjoint at op \d+ \(expm1\)"):
        tape.backward([(y, 1.0)], [x])


# ------------------------------------------------------------- chain gradient


def chain_parts(n_steps):
    """A small solver-shaped chain: prelude builds a step-size vector from xi,
    each step mixes the state nonlinearly, finale is a quadratic loss."""

    def prelude(env):
        times = 0.25 * np.exp(env["xi"])
        return (times,), (env["x"], 0.0 * env["x"])

    def make_step(dt):
        def step(state):
            x, h = state
            u = x - h
            xn = x + dt * (u / (1.0 + u * u))
            return (xn, 0.5 * (h + x))
        return step

    def steps(shared):
        return [make_step(en.index(shared[0], i)) for i in range(n_steps)]

    def finale(state):
        r = state[0] - 0.3
        return np.vecdot(r, r)

    return prelude, steps, finale


LEAVES4 = {"xi": np.array([0.1, -0.2, 0.4, 0.0]),
           "x": np.array([0.8, -0.5])}


def test_checkpointed_equals_whole_tape():
    prelude, steps, finale = chain_parts(4)
    whole = en.whole_chain_grad(LEAVES4, prelude, steps, finale)
    ck = checkpointed_chain_grad(LEAVES4, prelude, steps, finale)
    assert ck.loss == whole.loss
    for k in LEAVES4:
        np.testing.assert_allclose(ck.grads[k], whole.grads[k],
                                   rtol=1e-12, atol=1e-12)


def test_checkpointed_matches_fd():
    prelude, steps, finale = chain_parts(4)

    def loss_at(xi):
        leaves = {"xi": xi, "x": LEAVES4["x"]}
        return checkpointed_chain_grad(leaves, prelude, steps, finale).loss

    got = checkpointed_chain_grad(LEAVES4, prelude, steps, finale).grads["xi"]
    want = fd_grad(loss_at, LEAVES4["xi"])
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_replay_is_bitwise():
    prelude, steps, finale = chain_parts(6)
    leaves = {"xi": np.linspace(-1, 1, 6), "x": np.array([0.3, 0.1])}
    # every call checks each replayed segment against the forward bitwise
    checkpointed_chain_grad(leaves, prelude, steps, finale)


@pytest.mark.parametrize("chain_grad", [checkpointed_chain_grad,
                                        en.whole_chain_grad],
                         ids=["ckpt", "whole"])
def test_prelude_runs_once_per_call(chain_grad):
    prelude, steps, finale = chain_parts(4)
    calls = []

    def counting(env):
        calls.append(None)
        return prelude(env)

    chain_grad(LEAVES4, counting, steps, finale)
    assert len(calls) == 1


def test_replay_divergence_is_caught():
    prelude, steps, finale = chain_parts(3)
    calls = []

    def drifting_chain(shared):
        first, middle, last = steps(shared)

        def drifting(state):
            # adds a different constant on each call, so the replay cannot
            # match
            calls.append(None)
            x, h = middle(state)
            return (x + 1e-3 * len(calls), h)

        return [first, drifting, last]

    with pytest.raises(en.EngineError, match="replay diverged"):
        checkpointed_chain_grad(LEAVES4 | {"xi": np.zeros(3)}, prelude,
                                drifting_chain, finale)


def test_retained_arrays_constant_per_step():
    outs = []
    for n in (4, 10):
        prelude, steps, finale = chain_parts(n)
        leaves = {"xi": np.zeros(n), "x": np.array([0.8, -0.5])}
        res = checkpointed_chain_grad(leaves, prelude, steps, finale)
        outs.append(res)
    assert outs[0].retained_per_step == outs[1].retained_per_step
    # whole-tape retention grows with length instead
    p4, s4, f4 = chain_parts(4)
    p10, s10, f10 = chain_parts(10)
    w4 = en.whole_chain_grad({"xi": np.zeros(4), "x": LEAVES4["x"]}, p4, s4, f4)
    w10 = en.whole_chain_grad({"xi": np.zeros(10), "x": LEAVES4["x"]}, p10, s10, f10)
    assert w10.retained_arrays > w4.retained_arrays


def test_constant_state_slots_are_fine():
    # a state slot that never becomes a Value (pure constant history pad)
    def prelude(env):
        return (), (env["x"], np.zeros(2))

    def step(state):
        x, pad = state
        return (0.9 * x, pad)

    def finale(state):
        return np.vecdot(state[0], state[0])

    leaves = {"x": np.array([1.0, 2.0])}
    ck = checkpointed_chain_grad(leaves, prelude, lambda shared: [step, step],
                                 finale)
    whole = en.whole_chain_grad(leaves, prelude, lambda shared: [step, step],
                                finale)
    np.testing.assert_allclose(ck.grads["x"], whole.grads["x"], atol=1e-15)
