import numpy as np
import pytest

from jointmeas.distances import D_inf
from jointmeas.povm import Povm, bloch_pvm, random_povm, random_ragged, validate_povm
from jointmeas.smearing import OutcomeMap, coordinate_maps, marginalize, marginals


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

    @pytest.mark.parametrize(
        "source, target, assignment, message",
        [
            ((), ("x",), {}, "source and target outcome sets must be nonempty"),
            (("a",), (), {"a": "x"}, "source and target outcome sets must be nonempty"),
            (("a", "a"), ("x",), {"a": "x"}, "outcome labels must be distinct"),
            (("a",), ("x", "x"), {"a": "x"}, "outcome labels must be distinct"),
        ],
        ids=["empty-source", "empty-target", "duplicate-source", "duplicate-target"],
    )
    def test_rejects_malformed_outcome_sets(self, source, target, assignment, message):
        with pytest.raises(ValueError) as err:
            OutcomeMap(source, target, assignment)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "source, target, assignment, message",
        [
            (
                ("a", "b", "c", "d"),
                ("x",),
                {"b": "x", "d": "x"},
                "assignment is not total: missing ['a', 'c']",
            ),
            (
                ("a", "b"),
                ("x",),
                {"q": "x", "a": "x", 7: "x", "b": "x", "p": "y"},
                "assignment maps labels outside the source set: ['q', '7', 'p']",
            ),
            (
                ("a", "b", "c"),
                ("x", "y"),
                {"c": "z", "a": "x", "b": 1},
                "assignment hits labels outside the target set: [('c', 'z'), ('b', '1')]",
            ),
        ],
        ids=["missing", "extra", "bad"],
    )
    def test_names_every_stray_label_in_order(self, source, target, assignment, message):
        with pytest.raises(ValueError) as err:
            OutcomeMap(source, target, assignment)
        assert str(err.value) == message

    def test_fibers(self):
        f = OutcomeMap(("a", "b", "c"), ("x", "y"), {"a": "x", "b": "x", "c": "y"})
        assert fiber(f, "x") == ("a", "b")
        assert fiber(f, "y") == ("c",)

    def test_compose(self):
        f = OutcomeMap(("a", "b"), ("x", "y"), {"a": "x", "b": "y"})
        g = OutcomeMap(("x", "y"), ("z",), {"x": "z", "y": "z"})
        assert f.compose(g).assignment == {"a": "z", "b": "z"}

    def test_compose_needs_matching_sets(self):
        f = OutcomeMap(("a", "b"), ("x", "y"), {"a": "x", "b": "y"})
        g = OutcomeMap(("y", "x"), ("z",), {"x": "z", "y": "z"})
        with pytest.raises(ValueError) as err:
            f.compose(g)
        assert str(err.value) == "maps do not compose: inner target != outer source"


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


def test_ragged_marginals_equal_each_item_alone():
    # items of three dimensions and different outcome counts, in one stack;
    # item 1 leaves its second target unhit, item 3 sends every outcome to
    # one target, and the others pick their targets at random
    dims, counts, targets = [2, 3, 2, 4, 3, 2], [3, 5, 2, 4, 6, 8], [2, 2, 1, 3, 4, 3]
    stack = random_ragged(dims, counts, np.random.default_rng(300))
    rng = np.random.default_rng(34)
    picks = [rng.integers(0, t, size=n) for n, t in zip(counts, targets)]
    picks[1][:] = 0
    picks[3][:] = 2
    found = marginals(stack, np.concatenate(picks), targets, "t")
    assert found.dims.tolist() == dims and found.counts.tolist() == targets
    for i, pick in enumerate(picks):
        p = stack.povm(i)
        labels = tuple(f"t{k}" for k in range(targets[i]))
        f = OutcomeMap(p.outcomes, labels, {o: labels[k] for o, k in zip(p.outcomes, pick)})
        alone, item = marginalize(p, f), found.povm(i)
        assert item.outcomes == alone.outcomes == labels
        assert item.elements.tobytes() == alone.elements.tobytes()
    assert np.abs(found.povm(1).elements[1]).max() == 0.0
    assert np.abs(found.povm(3).elements[:2]).max() == 0.0
    assert np.allclose(found.povm(3).elements[2], np.eye(4), atol=1e-12)
    # the one-item case keeps its check of the map's source
    with pytest.raises(ValueError, match="^outcome map source does not match the POVM outcomes"):
        marginalize(stack.povm(0), OutcomeMap(("x", "y"), ("t0",), {"x": "t0", "y": "t0"}))


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

    @pytest.mark.parametrize("omega_a, omega_b", [([], ["b"]), (["a"], [])])
    def test_empty_outcome_list_rejected(self, omega_a, omega_b):
        with pytest.raises(ValueError) as err:
            coordinate_maps(omega_a, omega_b)
        assert str(err.value) == "outcome lists must be nonempty"

    def test_separator_rejected_in_labels(self):
        with pytest.raises(ValueError):
            coordinate_maps(("a|b",), ("c",))


class TestErrorOperators:
    """The error operators f(F)_a - A_a of reconstructing A from F through f,
    whose largest norm is D_inf(A, marginalize(F, f))."""

    def test_exact_reconstruction_gives_zero(self):
        a = diagonal_povm([[0.3, 0.6], [0.7, 0.4]])
        b = diagonal_povm([[0.5, 0.2], [0.5, 0.8]])
        joint, f_a, _ = product_of_commuting(a, b)
        assert D_inf(a, marginalize(joint, f_a)).value <= 1e-14

    def test_trivial_reconstruction_of_sharp_observable(self):
        a = bloch_pvm((0, 0, 1))
        flat = Povm(("f0", "f1"), np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        f = OutcomeMap(flat.outcomes, a.outcomes, {"f0": "+", "f1": "-"})
        assert D_inf(a, marginalize(flat, f)).value == pytest.approx(0.5, abs=1e-12)

    def test_errors_sum_to_zero(self):
        # marginalize keeps the element sum, so f(F) and A both sum to I
        rng = np.random.default_rng(35)
        for _ in range(20):
            a = random_povm(2, 3, int(rng.integers(1e6)))
            joint = random_povm(2, 5, int(rng.integers(1e6)))
            f = OutcomeMap(
                joint.outcomes,
                a.outcomes,
                {o: a.outcomes[int(rng.integers(3))] for o in joint.outcomes},
            )
            eps = marginalize(joint, f).elements - a.elements
            assert np.abs(eps.sum(axis=0)).max() <= 1e-10

    def test_target_mismatch_rejected(self):
        a = bloch_pvm((0, 0, 1))
        joint = random_povm(2, 4, seed=15)
        f = OutcomeMap(joint.outcomes, ("x", "y"), {o: "x" for o in joint.outcomes})
        with pytest.raises(ValueError, match="outcome sets differ"):
            D_inf(a, marginalize(joint, f))
