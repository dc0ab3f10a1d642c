"""Token selection, masked attention and re-attention tests."""

import math

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc import pipeline
from tokenloc.backbone import ModelConfig, init_params, mhsa
from tokenloc.errors import ContractError, DimensionError
from tokenloc.formats import read_checkpoint
from tokenloc.pipeline import two_branch_forward
from tokenloc.token_refine import (
    adaptive,
    fixed,
    importance_weights,
    preliminary_attention,
    reattention,
    refine_classify,
    select,
    spatial_map,
    top_k,
)
from tokenloc.training import (
    ToyTaskConfig,
    _batch_loss,
    backward,
    cross_entropy_joint,
    default_model_config,
    make_dataset,
)

from util import (
    adaptive_row,
    fixed_row,
    masked_importance_weights,
    select_rows,
    selection_matrix,
    top_k_row,
)
from test_pipeline import ACCEPTANCE_CKPT, _acceptance_samples

TINY = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                   num_heads=2, num_classes=3)


def adaptive_mask(m, u):
    """`adaptive(u)` through `select` on one (N,) priority row."""
    return select(m[None], adaptive(u))[0]


def selection_oracle(m, u):
    """Exhaustive-prefix reference: minimal top-value prefix reaching mass
    u, expanded to all ties at the threshold."""
    order = sorted(range(len(m)), key=lambda i: (-float(m[i]), i))
    total = 0.0
    for i in order:
        total += float(m[i])
    target = u * total
    running = 0.0
    for i in order:
        running += float(m[i])
        if running >= target:
            tau = float(m[i])
            break
    else:
        tau = float(m[order[-1]])
    return tau, {i for i in range(len(m)) if float(m[i]) >= tau}


# --- preliminary attention ------------------------------------------------

def test_preliminary_attention_uniform():
    n = 4
    uniform = np.full((1, 1, n + 1, n + 1), 1.0 / (n + 1), np.float32)
    m = preliminary_attention([uniform])
    assert m.shape == (1, n)
    assert np.allclose(m, np.full(n, 1.0 / (n + 1)), atol=1e-7)


def test_preliminary_attention_additive_over_blocks():
    rng = np.random.default_rng(0)
    a = nm.softmax(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
    one = preliminary_attention([a])
    two = preliminary_attention([a, a])
    assert np.allclose(two, 2.0 * one.astype(np.float64), atol=1e-6)


def test_preliminary_attention_matches_hand_composition():
    rng = np.random.default_rng(1)
    # two blocks, a batch of three images, two heads
    stack = [nm.softmax(rng.standard_normal((3, 2, 5, 5)).astype(np.float32))
             for _ in range(2)]
    m = preliminary_attention(stack)
    expected = np.zeros((3, 4))
    for probs in stack:
        mean = (probs[:, 0].astype(np.float64) + probs[:, 1].astype(np.float64)) / 2.0
        expected += mean[:, 0, 1:]
    assert np.allclose(m, expected, atol=1e-6)


def test_preliminary_attention_adds_heads_one_at_a_time_in_float32():
    rng = np.random.default_rng(17)
    probs = nm.softmax(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
    m = preliminary_attention([probs])
    for image in range(2):
        mean = probs[image, 0]
        for head in range(1, 4):
            mean = nm.add(mean, probs[image, head])
        assert np.array_equal(m[image], nm.scale(mean, 0.25)[0, 1:])


def test_preliminary_attention_empty_stack_rejected():
    with pytest.raises(ContractError):
        preliminary_attention([])


# --- adaptive selection -----------------------------------------------------

def test_adaptive_select_prefix_sum_trace():
    m = np.array([0.5, 0.3, 0.2], np.float32)
    mask = adaptive_mask(m, 0.7)
    assert np.array_equal(mask, [1, 1, 0])
    assert m[mask > 0].min() == np.float32(0.3)


def test_adaptive_select_full_mass_selects_all_positive():
    mask = adaptive_mask(np.array([0.5, 0.0, 0.3, 0.2, 0.0], np.float32), 1.0)
    assert np.array_equal(mask, [1, 0, 1, 1, 0])


def test_adaptive_select_small_mass_selects_argmax_and_ties():
    m = np.array([0.4, 0.1, 0.4, 0.05], np.float32)
    mask = adaptive_mask(m, 0.1)
    assert np.array_equal(mask, [1, 0, 1, 0])
    assert m[mask > 0].min() == np.float32(0.4)


def test_adaptive_select_zero_mass_rejected():
    # a zero mass fraction is rejected when the rule is built, and a
    # zero-mass priority row never reaches a rule: it keeps its argmax
    with pytest.raises(ContractError):
        adaptive(0.0)

    def refuse(m):
        raise AssertionError(f"rows {m} of zero mass reached the rule")

    assert np.array_equal(select(np.zeros((2, 4), np.float32), refuse), [[1, 0, 0, 0]] * 2)


def test_adaptive_select_monotone_nesting():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.random(12).astype(np.float32)
        masses = sorted(rng.uniform(0.05, 1.0, size=4))
        previous = None
        for u in masses:
            mask = adaptive_mask(m, float(u))
            selected = set(np.flatnonzero(mask))
            if previous is not None:
                assert previous <= selected
            previous = selected


def test_adaptive_select_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rng.random(10).astype(np.float32)
        u = float(rng.uniform(0.1, 1.0))
        mask = adaptive_mask(m, u)
        for c in (0.25, 4.0, 1000.0):
            mask_c = adaptive_mask((m * np.float32(c)).astype(np.float32), u)
            assert np.array_equal(mask, mask_c)


def test_adaptive_select_selected_mass_bracket():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = rng.random(int(rng.integers(2, 16))).astype(np.float32)
        u = float(rng.uniform(0.05, 1.0))
        mask = adaptive_mask(m, u)
        total = float(m.astype(np.float64).sum())
        selected = float(m.astype(np.float64)[mask > 0].sum())
        assert selected / total >= u - 1e-9
        # dropping the smallest selected value (no ties at tau) undershoots u
        values = m[mask > 0]
        if np.count_nonzero(values == values.min()) == 1 and mask.sum() > 1:
            reduced = selected - float(values.min())
            assert reduced / total < u


def test_adaptive_select_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        m = (rng.random(n) * rng.choice([0.1, 1.0, 10.0])).astype(np.float32)
        if m.sum() == 0:
            continue
        u = float(rng.uniform(0.02, 1.0))
        mask = adaptive_mask(m, u)
        tau_o, selected_o = selection_oracle(m, u)
        assert set(np.flatnonzero(mask)) == selected_o
        assert m[mask > 0].min() == tau_o


# --- stacked selection against the per-row oracle ----------------------------

def _rule_pairs(n):
    """(stacked rule, per-row oracle rule) for rows of n tokens: adaptive
    at several masses, topk at 1 and n, fixed at 0 and at the mean, and
    constant selectors, one of them empty (the fallback for every row)."""
    some = np.zeros(n, np.float32)
    some[::3] = 1.0
    pairs = [(adaptive(u), lambda m, u=u: adaptive_row(m, u))
             for u in (0.02, 0.3, 0.5, 0.65, 0.9, 1.0)]
    pairs += [(top_k(k), lambda m, k=k: top_k_row(m, k)) for k in sorted({1, min(7, n), n})]
    pairs += [(fixed(t), lambda m, t=t: fixed_row(m, t)) for t in (0.0, 0.015, "mean")]
    pairs += [(lambda m, c=c: np.broadcast_to(c > 0, m.shape), lambda m, c=c: (0.5, c))
              for c in (some, np.zeros(n, np.float32))]
    return pairs


def _random_stacks(rng):
    """Seeded (B, N) priority stacks: plain, tied (few distinct values),
    sparse, all-zero, all-equal, NaN and inf rows, at several widths."""
    stacks = []
    for n in (1, 2, 5, 64):
        rows = [rng.random(n) * rng.choice([1e-3, 1.0, 40.0]) for _ in range(40)]
        rows += [rng.integers(0, 3, n) / 8.0 for _ in range(20)]        # ties, some all-zero
        # tenths: running sums that meet the target at a float32 rounding
        rows += [rng.integers(0, 10, n) / 10.0 for _ in range(40)]
        rows += [np.where(rng.random(n) < 0.8, 0.0, rng.random(n)) for _ in range(10)]
        rows += [np.zeros(n), np.full(n, 0.1), np.full(n, 3e-39)]       # zero, equal, subnormal
        for bad in (np.nan, np.inf):
            for _ in range(3):
                row = rng.random(n)
                row[rng.integers(n)] = bad
                rows.append(row)
            rows.append(np.full(n, bad))
        stacks.append(np.asarray(rows, np.float32))
    return stacks


def _heldout_priorities(seed):
    """(50, 64) priorities of the acceptance checkpoint on the held-out set
    of toy seed `seed`: perfbench fixture seed - 99."""
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = make_dataset(ToyTaskConfig(samples_per_epoch=50, seed=seed))
    images = np.stack([image for image, _, _ in samples])
    return pipeline.two_branch_forward(params, cfg, images).priorities


def test_stacked_selection_is_bit_identical_to_the_per_row_oracle():
    stacks = [_heldout_priorities(99), _heldout_priorities(102)]
    stacks += _random_stacks(np.random.default_rng(8))
    for stack in stacks:
        for rule, row_rule in _rule_pairs(stack.shape[1]):
            got = select(stack, rule)
            want = select_rows(stack, row_rule)
            assert got.dtype == np.float32 and np.array_equal(got, want), (stack.shape, rule)
            # one stack or one row at a time, the same rows
            assert np.array_equal(np.concatenate([select(row[None], rule) for row in stack]), got)
    with pytest.raises(ContractError, match="nonnegative"):
        select(np.array([[0.5, 0.2], [0.1, -0.1]], np.float32), fixed(0.0))
    with pytest.raises(DimensionError, match=r"\(B, N\)"):
        select(np.ones(3, np.float32), fixed(0.0))



def adaptive_take_along_axis(mass):
    """`adaptive(mass)` as it gathered with `take_along_axis`: the sorted
    priorities, then the order's entry at the last prefix position, then
    the priority there."""
    def rule(m):
        order = np.argsort(-m, axis=-1, kind="stable")
        cum = np.cumsum(np.take_along_axis(m, order, axis=-1), axis=-1, dtype=np.float64)
        last = np.minimum((cum < mass * cum[:, -1:]).sum(axis=-1), m.shape[-1] - 1)
        return m >= np.take_along_axis(m, np.take_along_axis(order, last[:, None], -1), -1)
    return rule


def test_adaptive_rule_is_bit_identical_to_its_take_along_axis_form():
    # the raw rule, also on the zero, NaN and inf rows that `select` falls back on
    for stack in [_heldout_priorities(99)] + _random_stacks(np.random.default_rng(9)):
        for u in (0.02, 0.3, 0.65, 1.0):
            assert np.array_equal(adaptive(u)(stack), adaptive_take_along_axis(u)(stack))

# --- selection matrix -------------------------------------------------------

def test_selection_matrix_all_ones():
    assert np.array_equal(selection_matrix(np.ones(3, np.float32)), np.ones((3, 3)))


def test_selection_matrix_all_zeros_is_identity():
    assert np.array_equal(selection_matrix(np.zeros(3, np.float32)), np.eye(3))


def test_selection_matrix_row_expansion():
    got = selection_matrix(np.array([1, 0, 1], np.float32))
    assert np.array_equal(got, np.array([[1, 0, 1], [1, 1, 1], [1, 0, 1]], np.float32))


# --- masked attention -------------------------------------------------------

def test_masked_mhsa_all_ones_equals_plain():
    rng = np.random.default_rng(6)
    params = init_params(TINY, 7)
    rows = rng.standard_normal((4, 8)).astype(np.float32)
    ones = np.ones((1, 4, 4), np.float32)
    masked_out, masked_attn = mhsa(rows, params, "refine.mask_block", 2, 4, mask=ones)
    plain_out, plain_attn = mhsa(rows, params, "refine.mask_block", 2, 4)
    assert np.allclose(masked_out, plain_out, atol=1e-6)
    assert masked_attn.shape == plain_attn.shape == (1, 2, 4, 4)
    assert np.allclose(masked_attn, plain_attn, atol=1e-6)


def test_masked_mhsa_mask_contract():
    rng = np.random.default_rng(7)
    params = init_params(TINY, 8)
    rows = rng.standard_normal((2 * 4, 8)).astype(np.float32)
    matrix = selection_matrix(np.array([[1, 0, 0, 1], [0, 1, 0, 0]], np.float32))
    _, attn = mhsa(rows, params, "refine.mask_block", 2, 4, mask=matrix)
    for image in range(2):
        for a in attn[image]:
            assert np.all(a[matrix[image] == 0] == 0.0)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-5)


def test_masked_mhsa_matches_composition_oracle():
    rng = np.random.default_rng(8)
    d, n = 4, 3
    params = {}
    for name in ("q", "k", "v", "out"):
        params[f"mb.attn.{name}.weight"] = rng.standard_normal((d, d)).astype(np.float32)
        params[f"mb.attn.{name}.bias"] = rng.standard_normal(d).astype(np.float32)
    z_p = rng.standard_normal((n, d)).astype(np.float32)
    matrix = selection_matrix(np.array([1, 0, 1], np.float32))

    out, attn = mhsa(z_p, params, "mb", 1, n, mask=matrix[None])
    attn = attn[:, 0]

    z64 = z_p.astype(np.float64)
    q = z64 @ params["mb.attn.q.weight"] + params["mb.attn.q.bias"]
    k = z64 @ params["mb.attn.k.weight"] + params["mb.attn.k.bias"]
    v = z64 @ params["mb.attn.v.weight"] + params["mb.attn.v.bias"]
    scores = q @ k.T / math.sqrt(d)
    expected_attn = np.zeros((n, n))
    for i in range(n):
        keep = matrix[i] > 0
        e = np.exp(scores[i][keep] - scores[i][keep].max())
        expected_attn[i][keep] = e / e.sum()
    expected = expected_attn @ v @ params["mb.attn.out.weight"] + params["mb.attn.out.bias"]
    assert np.allclose(np.asarray(attn[0]), expected_attn, atol=1e-5)
    assert np.allclose(out, expected, atol=1e-5)


# --- importance weights -----------------------------------------------------

def _selection_for(mask):
    """A batch-of-one mask for one mask vector, or a batch for a matrix."""
    mask = np.asarray(mask, np.float32)
    return mask[None] if mask.ndim == 1 else mask


def test_importance_weights_single_token():
    rng = np.random.default_rng(9)
    params = init_params(TINY, 10)
    z_p = rng.standard_normal((1, 4, 8)).astype(np.float32)
    lam = importance_weights(z_p, _selection_for([0, 0, 1, 0]), params, 2)
    assert np.array_equal(nm.value_of(lam), [[0, 0, 1, 0]])


def test_importance_weights_reject_an_empty_row_in_a_batch():
    params = init_params(TINY, 10)
    z_p = np.random.default_rng(9).standard_normal((2, 4, 8)).astype(np.float32)
    with pytest.raises(ContractError):
        importance_weights(z_p, _selection_for([[0, 0, 1, 0], [0, 0, 0, 0]]), params, 2)


def test_importance_weights_support_and_sum():
    rng = np.random.default_rng(10)
    for trial in range(10):
        params = init_params(TINY, 20 + trial)
        z_p = rng.standard_normal((1, 4, 8)).astype(np.float32)
        mask = (rng.random(4) < 0.5).astype(np.float32)
        if mask.sum() == 0:
            mask[0] = 1.0
        lam = nm.value_of(importance_weights(z_p, _selection_for(mask), params, 2))[0]
        assert abs(float(lam.sum()) - 1.0) < 1e-6
        assert np.all(lam * (1.0 - mask) == 0.0)
        assert np.all(lam >= 0.0)


def test_importance_weights_matches_step_oracle():
    rng = np.random.default_rng(11)
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=4, num_blocks=2,
                      num_heads=1, num_classes=2, mlp_ratio=2)
    params = init_params(cfg, 12)
    z_p = rng.standard_normal((4, 4)).astype(np.float32)
    mask = np.array([1, 1, 0, 1], np.float32)
    lam = nm.value_of(importance_weights(z_p[None], _selection_for(mask), params, 1))[0]

    def ln(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-6) * g + b

    def getp(name):
        return params[f"refine.mask_block.{name}"].astype(np.float64)

    matrix = selection_matrix(mask)
    z64 = z_p.astype(np.float64)
    h = ln(z64, getp("ln1.gamma"), getp("ln1.beta"))
    q = h @ getp("attn.q.weight") + getp("attn.q.bias")
    k = h @ getp("attn.k.weight") + getp("attn.k.bias")
    v = h @ getp("attn.v.weight") + getp("attn.v.bias")
    scores = q @ k.T / 2.0
    attn = np.zeros((4, 4))
    for i in range(4):
        keep = matrix[i] > 0
        e = np.exp(scores[i][keep] - scores[i][keep].max())
        attn[i][keep] = e / e.sum()
    z1 = z64 + attn @ v @ getp("attn.out.weight") + getp("attn.out.bias")
    hidden = ln(z1, getp("ln2.gamma"), getp("ln2.beta")) @ getp("mlp.fc1.weight") + getp("mlp.fc1.bias")
    from scipy.special import erf
    hidden = hidden * 0.5 * (1.0 + erf(hidden / math.sqrt(2.0)))
    z2 = z1 + hidden @ getp("mlp.fc2.weight") + getp("mlp.fc2.bias")
    raw = (z2 @ params["refine.score.weight"].astype(np.float64)
           + params["refine.score.bias"].astype(np.float64)).ravel()
    keep = mask > 0
    e = np.exp(raw[keep] - raw[keep].max())
    expected = np.zeros(4)
    expected[keep] = e / e.sum()
    assert np.allclose(lam, expected, atol=1e-5)


# --- gathered mask block against the masked oracle --------------------------

def _oracle_weights(params, cfg, result):
    z_p = nm.value_of(result.z_p)
    return masked_importance_weights(z_p, result.mask, params, cfg.num_heads)


@pytest.mark.parametrize("stack", [1, 4])
def test_gathered_weights_equal_the_masked_oracle_on_the_heldout_set(stack):
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    images = np.stack([image for image, _, _ in _acceptance_samples(50)])
    for start in range(0, len(images), stack):
        result = two_branch_forward(params, cfg, images[start:start + stack])
        lam = _oracle_weights(params, cfg, result)
        assert np.array_equal(result.weights, lam), start
        refined = reattention(result.priorities, result.mask, lam)
        assert np.array_equal(result.refined_map, spatial_map(refined)), start


def test_gathered_weights_equal_the_masked_oracle_on_mixed_counts():
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    images = np.stack([image for image, _, _ in _acceptance_samples(4)])
    result = two_branch_forward(params, cfg, images)
    m = result.priorities
    mixed = np.stack([
        select(m[:1], top_k(1))[0],
        select(m[1:2], fixed("mean"))[0],
        select(np.zeros_like(m[2:3]), adaptive(cfg.selection_mass))[0],   # the argmax fallback
        np.ones_like(m[3]),
    ])
    assert sorted(mixed.sum(axis=-1)) == [1, 1, mixed[1].sum(), cfg.num_tokens]
    z_p = nm.value_of(result.z_p)
    for mask in (mixed, np.ones_like(m)):   # the second stack has m = N
        assert np.array_equal(importance_weights(z_p, mask, params, cfg.num_heads),
                              masked_importance_weights(z_p, mask, params, cfg.num_heads))


def test_unpadded_stack_runs_the_mask_block_without_a_mask(monkeypatch):
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    images = np.stack([image for image, _, _ in _acceptance_samples(4)])
    result = two_branch_forward(params, cfg, images)
    m, z_p = result.priorities, nm.value_of(result.z_p)
    sevens = select(m, top_k(7))
    mixed = np.concatenate([select(m[:1], top_k(1)), sevens[1:]])
    masks = []
    real = nm.attention

    def recording(q, k, v, num_heads, seq_len, mask=None):
        masks.append(mask)
        return real(q, k, v, num_heads, seq_len, mask)

    # every image keeps 7 tokens, then the first image keeps 1
    for mask, padded in ((sevens, False), (mixed, True)):
        monkeypatch.setattr(nm, "attention", recording)
        lam = importance_weights(z_p, mask, params, cfg.num_heads)
        monkeypatch.undo()
        assert len(masks) == 1 and (masks.pop() is not None) == padded
        assert np.array_equal(lam, masked_importance_weights(z_p, mask, params, cfg.num_heads))


def _shift_invariant(name):
    """Parameters whose gradient is zero in exact arithmetic, because a
    softmax ignores a shift of its inputs: key biases, and the biases
    that shift every importance score alike. Both paths leave float64
    rounding residue of about 1e-21 there, in an order-dependent way."""
    return name.endswith("attn.k.bias") or name in (
        "refine.score.bias", "refine.mask_block.mlp.fc2.bias")


def _cycling_topk(m):
    """A selector keeping the top 1, 64, 7, 42, 1, 30, 64, 12 tokens of a
    stack's successive images, so one stack mixes padded and unpadded
    images."""
    counts = np.array([1, 64, 7, 42, 1, 30, 64, 12])[:len(m), None]
    return np.argsort(np.argsort(-m, axis=-1, kind="stable"), axis=-1) < counts


@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("trained", [False, True])
@pytest.mark.parametrize("mixed", [False, True])
def test_gathered_weights_give_the_masked_oracle_loss_and_gradients(phase, trained, mixed,
                                                                     monkeypatch):
    toy = ToyTaskConfig(seed=7)
    if trained:
        cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    else:
        cfg = default_model_config(toy)
        params = init_params(cfg, 9)
    batch = make_dataset(toy)[:8]
    images = np.stack([image for image, _, _ in batch])

    def loss_and_grads():
        tape = nm.GradTape()
        leaves = {name: tape.leaf(value) for name, value in params.items()
                  if name.startswith("cam.") == (phase == 2)}
        if mixed:
            result = two_branch_forward({**params, **leaves}, cfg, images,
                                        selector=_cycling_topk)
            loss = nm.reduce_sum(cross_entropy_joint(result.p_cam, result.p_refine,
                                                     [label for _, label, _ in batch]))
        else:
            loss = _batch_loss({**params, **leaves}, cfg, batch)   # the training step's loss
        return nm.value_of(loss), backward(loss, tape, leaves)

    loss, grads = loss_and_grads()
    monkeypatch.setattr(pipeline, "importance_weights", masked_importance_weights)
    oracle_loss, oracle_grads = loss_and_grads()
    assert np.array_equal(loss, oracle_loss)
    assert grads.keys() == oracle_grads.keys()
    for name, grad in grads.items():
        if _shift_invariant(name):
            assert max(np.abs(grad).max(), np.abs(oracle_grads[name]).max()) < 1e-18, name
        else:
            assert np.array_equal(grad, oracle_grads[name]), name


# --- re-attention -----------------------------------------------------------

def test_reattention_hand_example():
    m = np.array([0.5, 0.3, 0.2], np.float32)
    b = np.array([1, 1, 0], np.float32)
    lam = np.array([0.9, 0.1, 0.0], np.float32)
    refined = reattention(m, b, lam)
    assert np.allclose(refined, [0.72, 0.08, 0.2], atol=1e-6)


def test_reattention_all_zero_mask_passthrough():
    m = np.array([0.4, 0.1], np.float32)
    refined = reattention(m, np.zeros(2, np.float32), np.zeros(2, np.float32))
    assert np.array_equal(refined, m)
    # m * 1 + lambda * 0 is m bit for bit for any finite nonnegative m and
    # lambda, zeros and subnormals included
    rng = np.random.default_rng(19)
    m = np.ldexp(rng.random((4, 9)).astype(np.float32), rng.integers(-149, 127, (4, 9)))
    m[0] = 0.0
    lam = np.ldexp(rng.random((4, 9)).astype(np.float32), rng.integers(-149, 127, (4, 9)))
    lam[1] = 0.0
    refined = reattention(m, np.zeros_like(m), lam)
    assert refined.dtype == np.float32 and refined.tobytes() == m.tobytes()


def test_reattention_zero_weights_rejected():
    with pytest.raises(ContractError):
        reattention(np.array([0.4, 0.6], np.float32), np.array([1, 0], np.float32),
                    np.zeros(2, np.float32))


def test_reattention_rows_of_a_batch_are_independent():
    rng = np.random.default_rng(18)
    m = rng.random((3, 5)).astype(np.float32)
    b = np.array([[1, 0, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]], np.float32)
    lam = (rng.random((3, 5)) * b).astype(np.float32)
    lam[0] /= lam[0].sum()
    lam[2] /= lam[2].sum()
    refined = reattention(m, b, lam)
    for row in range(3):
        assert np.array_equal(refined[row], reattention(m[row], b[row], lam[row]))
    assert np.array_equal(refined[1], m[1])  # the empty row passes through
    lam[2] = 0.0
    with pytest.raises(ContractError):
        reattention(m, b, lam)


def test_reattention_conserves_mass():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        m = rng.random(n).astype(np.float32)
        b = (rng.random(n) < 0.5).astype(np.float32)
        lam = np.zeros(n, np.float32)
        if b.sum() > 0:
            raw = rng.random(n) * b
            lam = (raw / raw.sum()).astype(np.float32)
        refined = reattention(m, b, lam)
        assert abs(float(refined.astype(np.float64).sum())
                   - float(m.astype(np.float64).sum())) < 1e-5


# --- map shaping and classification ----------------------------------------

def test_spatial_map_reshape():
    assert np.array_equal(spatial_map(np.array([1, 2, 3, 4], np.float32)),
                          np.array([[1, 2], [3, 4]], np.float32))


def test_spatial_map_roundtrip():
    rng = np.random.default_rng(13)
    v = rng.random(16).astype(np.float32)
    assert np.array_equal(spatial_map(v).ravel(), v)


def test_spatial_map_dimensions():
    assert spatial_map(np.zeros(196, np.float32)).shape == (14, 14)
    assert spatial_map(np.zeros((3, 16), np.float32)).shape == (3, 4, 4)
    with pytest.raises(DimensionError):
        spatial_map(np.zeros(5, np.float32))


def test_refine_classify_probability_contract():
    rng = np.random.default_rng(14)
    params = init_params(TINY, 15)
    z_cls = rng.standard_normal((2, 1, 8)).astype(np.float32)
    z_p = rng.standard_normal((2, 4, 8)).astype(np.float32)
    lam = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]], np.float32)
    p = nm.value_of(refine_classify(z_cls, z_p, lam, params, TINY))
    assert p.shape == (2, 3)
    assert np.all(p > 0)
    assert np.allclose(p.astype(np.float64).sum(axis=1), 1.0, atol=1e-6)


def test_one_hot_weights_fuse_to_single_token():
    rng = np.random.default_rng(15)
    z_p = rng.standard_normal((4, 8)).astype(np.float32)
    lam = np.array([0, 0, 1, 0], np.float32)
    fusion = nm.matmul(lam.reshape(1, 4), z_p)
    assert np.array_equal(fusion[0], z_p[2])


def test_refine_classify_matches_composition_oracle():
    rng = np.random.default_rng(16)
    params = init_params(TINY, 17)
    z_cls = rng.standard_normal((1, 8)).astype(np.float32)
    z_p = rng.standard_normal((4, 8)).astype(np.float32)
    lam = np.array([0.5, 0.1, 0.3, 0.1], np.float32)
    p = nm.value_of(refine_classify(z_cls[None], z_p[None], lam[None], params, TINY))[0]

    from tokenloc.backbone import block_forward
    fusion = nm.matmul(lam.reshape(1, 4), z_p)
    seq = np.vstack([z_cls, fusion])
    out, _ = block_forward(seq[None], params, "refine.final_block", TINY.num_heads)
    logits = (out[0, 0].astype(np.float64) @ params["refine.head.weight"].astype(np.float64)
              + params["refine.head.bias"].astype(np.float64))
    e = np.exp(logits - logits.max())
    assert np.allclose(p, e / e.sum(), atol=1e-5)


def test_refine_classify_batch_rows_equal_single_images():
    rng = np.random.default_rng(19)
    params = init_params(TINY, 20)
    z_cls = rng.standard_normal((3, 1, 8)).astype(np.float32)
    z_p = rng.standard_normal((3, 4, 8)).astype(np.float32)
    lam = rng.random((3, 4)).astype(np.float32)
    lam /= lam.sum(axis=1, keepdims=True)
    batched = refine_classify(z_cls, z_p, lam, params, TINY)
    for i in range(3):
        single = refine_classify(z_cls[i:i + 1], z_p[i:i + 1], lam[i:i + 1], params, TINY)
        assert np.array_equal(batched[i], single[0])
