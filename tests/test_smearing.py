import numpy as np
import pytest

from jointmeas.distances import D_inf
from jointmeas.povm import Povm, bloch_pvm, random_povm, validate_povm
from jointmeas.smearing import (
    OutcomeMap,
    coordinate_maps,
    error_operators,
    marginalize,
)


def diagonal_povm(probs_by_outcome):
    """Commuting (diagonal) POVM from per-outcome probability rows."""
    arr = np.array(probs_by_outcome, dtype=float)
    labels = tuple(f"d{k}" for k in range(arr.shape[0]))
    return Povm(labels, np.stack([np.diag(row).astype(complex) for row in arr]))


def fiber(f, target_label):
    """Source labels mapping to a target label, in source order."""
    return tuple(s for s in f.source if f.assignment[s] == target_label)


def product_of_commuting(a, b):
    """The joint observable {A_a B_b} for commuting pairs, on product labels."""
    f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
    mats = [a[x.split("|")[0]] @ b[x.split("|")[1]] for x in f_a.source]
    return Povm(f_a.source, np.stack(mats)), f_a, f_b


class TestOutcomeMap:
    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            OutcomeMap(("a", "b"), ("x",), {"a": "x"})

    def test_images_must_be_targets(self):
        with pytest.raises(ValueError):
            OutcomeMap(("a",), ("x",), {"a": "y"})

    def test_fibers(self):
        f = OutcomeMap(("a", "b", "c"), ("x", "y"), {"a": "x", "b": "x", "c": "y"})
        assert fiber(f, "x") == ("a", "b")
        assert fiber(f, "y") == ("c",)

    def test_compose(self):
        f = OutcomeMap(("a", "b"), ("x", "y"), {"a": "x", "b": "y"})
        g = OutcomeMap(("x", "y"), ("z",), {"x": "z", "y": "z"})
        assert f.compose(g).assignment == {"a": "z", "b": "z"}


class TestMarginalize:
    def test_identity_map_is_noop(self):
        p = random_povm(3, 4, seed=11)
        out = marginalize(p, OutcomeMap(p.outcomes, p.outcomes, {o: o for o in p.outcomes}))
        assert out.outcomes == p.outcomes
        assert np.array_equal(out.elements, p.elements)

    def test_constant_map_gives_identity(self):
        p = random_povm(3, 4, seed=12)
        out = marginalize(p, OutcomeMap(p.outcomes, ("all",), {o: "all" for o in p.outcomes}))
        assert out.outcomes == ("all",)
        assert np.allclose(out.elements[0], np.eye(3), atol=1e-12)

    def test_source_mismatch_rejected(self):
        p = random_povm(2, 2, seed=13)
        with pytest.raises(ValueError):
            marginalize(p, OutcomeMap(("wrong", "labels"), ("x",), {"wrong": "x", "labels": "x"}))

    def test_unhit_target_gets_zero_element(self):
        p = random_povm(2, 2, seed=14)
        f = OutcomeMap(p.outcomes, ("hit", "miss"), {o: "hit" for o in p.outcomes})
        out = marginalize(p, f)
        assert np.abs(out["miss"]).max() == 0.0
        assert validate_povm(out) == []

    def test_recovers_both_marginals_of_commuting_product(self):
        a = diagonal_povm([[0.2, 0.7, 0.1], [0.8, 0.3, 0.9]])
        b = diagonal_povm([[0.5, 0.4, 0.6], [0.25, 0.35, 0.2], [0.25, 0.25, 0.2]])
        joint, f_a, f_b = product_of_commuting(a, b)
        assert validate_povm(joint) == []
        back_a = marginalize(joint, f_a)
        back_b = marginalize(joint, f_b)
        assert np.allclose(back_a.elements, a.elements, atol=1e-14)
        assert np.allclose(back_b.elements, b.elements, atol=1e-14)

    def test_output_always_valid(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            p = random_povm(int(rng.integers(2, 4)), int(rng.integers(2, 6)), int(rng.integers(1e6)))
            targets = tuple(f"t{k}" for k in range(int(rng.integers(1, 4))))
            assignment = {o: targets[int(rng.integers(len(targets)))] for o in p.outcomes}
            out = marginalize(p, OutcomeMap(p.outcomes, targets, assignment))
            assert validate_povm(out) == []

    def test_functoriality(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_povm(3, 5, int(rng.integers(1e6)))
            mid = ("m0", "m1", "m2")
            end = ("z0", "z1")
            f = OutcomeMap(p.outcomes, mid, {o: mid[int(rng.integers(3))] for o in p.outcomes})
            g = OutcomeMap(mid, end, {m: end[int(rng.integers(2))] for m in mid})
            two = marginalize(marginalize(p, f), g)
            one = marginalize(p, f.compose(g))
            # identical sums, possibly regrouped by the intermediate stage
            assert np.abs(two.elements - one.elements).max() <= 1e-14


class TestCoordinateMaps:
    def test_two_by_two(self):
        f_a, f_b = coordinate_maps(("a0", "a1"), ("b0", "b1"))
        assert f_a.source == ("a0|b0", "a0|b1", "a1|b0", "a1|b1")
        assert all(len(fiber(f_a, t)) == 2 for t in f_a.target)
        assert all(len(fiber(f_b, t)) == 2 for t in f_b.target)

    def test_singleton_side_is_bijection(self):
        f_a, _ = coordinate_maps(("a0", "a1", "a2"), ("only",))
        assert len(f_a.source) == 3
        assert all(len(fiber(f_a, t)) == 1 for t in f_a.target)

    def test_fiber_sizes_three_by_two(self):
        f_a, f_b = coordinate_maps(("a0", "a1", "a2"), ("b0", "b1"))
        assert {len(fiber(f_a, t)) for t in f_a.target} == {2}
        assert {len(fiber(f_b, t)) for t in f_b.target} == {3}

    def test_separator_rejected_in_labels(self):
        with pytest.raises(ValueError):
            coordinate_maps(("a|b",), ("c",))


class TestErrorOperators:
    def test_exact_reconstruction_gives_zero(self):
        a = diagonal_povm([[0.3, 0.6], [0.7, 0.4]])
        b = diagonal_povm([[0.5, 0.2], [0.5, 0.8]])
        joint, f_a, _ = product_of_commuting(a, b)
        eps = error_operators(a, joint, f_a)
        assert np.abs(eps.operators).max() <= 1e-14
        assert eps.norms.max() <= 1e-14

    def test_trivial_reconstruction_of_sharp_observable(self):
        a = bloch_pvm((0, 0, 1))
        flat = Povm(("f0", "f1"), np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        f = OutcomeMap(flat.outcomes, a.outcomes, {"f0": "+", "f1": "-"})
        eps = error_operators(a, flat, f)
        assert np.allclose(eps.norms, [0.5, 0.5], atol=1e-12)

    def test_max_norm_equals_observable_distance(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a = random_povm(3, 3, int(rng.integers(1e6)))
            joint = random_povm(3, 6, int(rng.integers(1e6)))
            f = OutcomeMap(
                joint.outcomes,
                a.outcomes,
                {o: a.outcomes[int(rng.integers(3))] for o in joint.outcomes},
            )
            eps = error_operators(a, joint, f)
            assert eps.norms.max() == pytest.approx(
                D_inf(a, marginalize(joint, f)).value, abs=1e-12
            )

    def test_errors_sum_to_zero(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            a = random_povm(2, 3, int(rng.integers(1e6)))
            joint = random_povm(2, 5, int(rng.integers(1e6)))
            f = OutcomeMap(
                joint.outcomes,
                a.outcomes,
                {o: a.outcomes[int(rng.integers(3))] for o in joint.outcomes},
            )
            eps = error_operators(a, joint, f)
            assert np.abs(eps.operators.sum(axis=0)).max() <= 1e-10

    def test_target_mismatch_rejected(self):
        a = bloch_pvm((0, 0, 1))
        joint = random_povm(2, 4, seed=15)
        f = OutcomeMap(joint.outcomes, ("x", "y"), {o: "x" for o in joint.outcomes})
        with pytest.raises(ValueError):
            error_operators(a, joint, f)
