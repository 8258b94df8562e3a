import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import contrastive_frozen_pairs, fd_gradient, hard_negative_direct, random_model, rel_err
from ufda.consensus import MemoryBank, bank_init, nearest_bank_indices
from ufda.contrastive import PairSet, loss_contrastive, mine_pairs
from ufda.model import forward_batch
from ufda.numerics import l2_normalize_rows


def make_bank(seed, n=20, d=3, n_classes=3):
    rng = np.random.default_rng(seed)
    return MemoryBank(
        features=l2_normalize_rows(rng.normal(size=(n, d))),
        probs=rng.dirichlet(np.ones(n_classes), size=n),
    )


class TestMinePairs:
    def test_no_skip_when_expected_count_is_one(self):
        # B=4, Ct=4 -> e=1: negatives are simply the most similar others
        bank = make_bank(0)
        feats = np.random.default_rng(1).normal(size=(4, 3))
        unit = l2_normalize_rows(feats)
        pairs = mine_pairs(bank, unit, np.arange(4), 2, 4)
        sims = unit @ unit.T
        assert pairs.negatives.shape == (4, 2)
        for i, negatives in enumerate(pairs.negatives):
            order = sorted((j for j in range(4) if j != i), key=lambda j: (-sims[i, j], j))
            assert negatives.tolist() == order[:2]

    def test_skips_most_similar_when_batch_doubles(self):
        # B=8, Ct=4 -> e=2: the single most similar sample is skipped
        bank = make_bank(2)
        feats = np.random.default_rng(3).normal(size=(8, 3))
        unit = l2_normalize_rows(feats)
        pairs = mine_pairs(bank, unit, np.arange(8), 3, 4)
        sims = unit @ unit.T
        for i, negatives in enumerate(pairs.negatives):
            order = sorted((j for j in range(8) if j != i), key=lambda j: (-sims[i, j], j))
            assert order[0] not in negatives.tolist()
            assert negatives.tolist() == order[1:4]

    def test_hand_set_similarities_match_oracle(self):
        angles = [0.0, 0.1, 0.25, 1.2, 2.0, 2.7]
        feats = np.array([[math.cos(a), math.sin(a)] for a in angles])
        bank = make_bank(4, n=12, d=2)
        for ct in (2, 3, 4, 6):
            pairs = mine_pairs(bank, feats, np.arange(6), 2, ct)
            unit = l2_normalize_rows(feats)
            sims = unit @ unit.T
            for i, negatives in enumerate(pairs.negatives):
                assert negatives.tolist() == hard_negative_direct(sims[i], i, 6, ct, 2)

    def test_wraps_down_the_ranking(self):
        # B=4, Ct=1 -> e=4, skip 3 of only 3 others: wraps to the top
        bank = make_bank(5)
        feats = np.random.default_rng(6).normal(size=(4, 3))
        unit = l2_normalize_rows(feats)
        pairs = mine_pairs(bank, unit, np.arange(4), 3, 1)
        sims = unit @ unit.T
        for i, negatives in enumerate(pairs.negatives):
            order = sorted((j for j in range(4) if j != i), key=lambda j: (-sims[i, j], j))
            assert negatives.tolist() == order  # 3 picks over 3 others, rotated to start
            assert i not in negatives.tolist()

    def test_anchor_never_in_negatives(self):
        bank = make_bank(7)
        feats = l2_normalize_rows(np.random.default_rng(8).normal(size=(10, 3)))
        pairs = mine_pairs(bank, feats, np.arange(10), 4, 3)
        assert len(pairs) == 10
        for i, negatives in enumerate(pairs.negatives):
            assert i not in negatives.tolist()

    def test_positives_match_consensus_neighbors(self):
        model = random_model(np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(15, 4))
        bank = bank_init(model, x)
        batch_idx = np.array([2, 5, 7, 11, 0, 13])
        fwd = forward_batch(model, x[batch_idx])
        unit = l2_normalize_rows(fwd.features)
        pairs = mine_pairs(bank, unit, batch_idx, 4, 3)
        want = nearest_bank_indices(bank, unit, 4, batch_idx)
        assert np.array_equal(pairs.positives, want)
        for i, positives in enumerate(pairs.positives):
            assert batch_idx[i] not in positives.tolist()

    def test_batch_too_small_rejected(self):
        bank = make_bank(11)
        feats = np.random.default_rng(12).normal(size=(3, 3))
        with pytest.raises(ValueError, match="batch too small"):
            mine_pairs(bank, feats, np.arange(3), 3, 2)


class TestLossContrastive:
    def test_identical_positive_orthogonal_negative(self):
        bank = MemoryBank(features=np.eye(2), probs=np.ones((2, 1)))
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        pairs = PairSet(positives=np.array([[0], [1]]), negatives=np.array([[1], [0]]))
        value, _ = loss_contrastive(feats, pairs, bank)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_same_vectors_cancel(self):
        feats = np.array([[1.0, 0.2], [0.3, 0.7]])
        # each anchor's positive and negative are the same direction
        bank = MemoryBank(features=l2_normalize_rows(feats[::-1]), probs=np.ones((2, 1)))
        pairs = PairSet(positives=np.array([[0], [1]]), negatives=np.array([[1], [0]]))
        value, d_anchor = loss_contrastive(feats, pairs, bank)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d_anchor, 0.0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_direct_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        b, n_bank = 5, 12
        bank = make_bank(seed, n=n_bank)
        feats = rng.normal(size=(b, 3)) + 0.1
        pairs = mine_pairs(bank, l2_normalize_rows(feats), rng.integers(0, n_bank, size=b), 2, 3)

        def cos(a, v):
            return float(a @ v / (np.linalg.norm(a) * np.linalg.norm(v)))

        want = 0.0
        for i in range(b):
            a = feats[i]
            want += sum(cos(a, feats[j]) for j in pairs.negatives[i])
            want -= sum(cos(a, bank.features[j]) for j in pairs.positives[i])
        want /= b
        got, _ = loss_contrastive(feats, pairs, bank)
        assert got == pytest.approx(want, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_bounded_by_pair_counts(self, seed):
        # cosines live in [-1, 1], so each pair-sum is bounded by its size
        rng = np.random.default_rng(seed)
        bank = make_bank(seed)
        feats = rng.normal(size=(6, 3)) + 0.05
        pairs = mine_pairs(bank, l2_normalize_rows(feats), rng.integers(0, 20, size=6), 3, 4)
        value, _ = loss_contrastive(feats, pairs, bank)
        assert -6.0 - 1e-9 <= value <= 6.0 + 1e-9

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_tight_bound_for_nonnegative_similarities(self, seed):
        # with every feature in the positive orthant the value sits in
        # [-n_pos, n_neg]
        rng = np.random.default_rng(seed)
        bank = MemoryBank(
            features=l2_normalize_rows(rng.random((10, 3)) + 0.05),
            probs=rng.dirichlet(np.ones(3), size=10),
        )
        feats = rng.random((6, 3)) + 0.05
        pairs = mine_pairs(bank, l2_normalize_rows(feats), rng.integers(0, 10, size=6), 3, 4)
        value, _ = loss_contrastive(feats, pairs, bank)
        assert -3.0 - 1e-9 <= value <= 3.0 + 1e-9

    def test_gradient_matches_fd_with_pairs_frozen(self):
        rng = np.random.default_rng(42)
        for trial in range(3):
            model = random_model(rng)
            x = rng.normal(size=(5, 4))
            bank = bank_init(model, rng.normal(size=(9, 4)))
            batch_idx = np.arange(5)
            fwd0 = forward_batch(model, x)
            pairs = mine_pairs(bank, l2_normalize_rows(fwd0.features), batch_idx, 2, 3)
            names = ("w1", "b1", "w2", "b2")

            def loss_fn(m):
                # stop-grad: pair sides stay at their snapshot values; only
                # anchors are recomputed from the parameters
                return contrastive_frozen_pairs(forward_batch(m, x).features, pairs, bank, fwd0.features)

            fwd = forward_batch(model, x)
            value, d_anchor = loss_contrastive(fwd.features, pairs, bank)
            assert value == pytest.approx(loss_fn(model), abs=1e-12)
            from ufda.model import backward

            grads = backward(model, fwd, np.zeros_like(fwd.logits), d_feature=d_anchor)
            analytic = np.concatenate([grads.get(n).ravel() for n in names])
            numeric = fd_gradient(model, names, loss_fn)
            assert rel_err(analytic, numeric) < 1e-4


class TestStopGradient:
    def test_pair_side_perturbation_changes_loss_but_not_gradient_paths(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        x = rng.normal(size=(4, 4))
        bank = bank_init(model, rng.normal(size=(8, 4)))
        fwd = forward_batch(model, x)
        pairs = mine_pairs(bank, l2_normalize_rows(fwd.features), np.arange(4), 2, 2)

        base_value, base_grad = loss_contrastive(fwd.features, pairs, bank)
        # perturb a positive's stored bank feature: the loss value must move
        bank.features[pairs.positives[0, 0]] += 1e-3
        new_value, _ = loss_contrastive(fwd.features, pairs, bank)
        assert new_value != base_value

    def test_live_pair_dependence_is_severed(self):
        # FD through the full live recomputation (negatives re-derived from
        # the parameters) must NOT match the implementation, while FD with
        # pair sides frozen must. That is the stop-gradient contract.
        rng = np.random.default_rng(19)
        model = random_model(rng)
        x = rng.normal(size=(4, 4))
        bank = bank_init(model, rng.normal(size=(8, 4)))
        fwd0 = forward_batch(model, x)
        pairs = mine_pairs(bank, l2_normalize_rows(fwd0.features), np.arange(4), 2, 2)
        names = ("w1", "b1", "w2", "b2")
        from ufda.model import backward

        fwd = forward_batch(model, x)
        _, d_anchor = loss_contrastive(fwd.features, pairs, bank)
        grads = backward(model, fwd, np.zeros_like(fwd.logits), d_feature=d_anchor)
        analytic = np.concatenate([grads.get(n).ravel() for n in names])

        def frozen_loss(m):
            return contrastive_frozen_pairs(forward_batch(m, x).features, pairs, bank, fwd0.features)

        def live_loss(m):
            f = forward_batch(m, x)
            v, _ = loss_contrastive(f.features, pairs, bank)  # negatives re-derived
            return v

        fd_frozen = fd_gradient(model, names, frozen_loss)
        fd_live = fd_gradient(model, names, live_loss)
        assert rel_err(analytic, fd_frozen) < 1e-4
        assert rel_err(fd_live, fd_frozen) > 1e-3  # the severed path is real
