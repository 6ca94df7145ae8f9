import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointmeas
from jointmeas import feasibility, linalg
from jointmeas.bounds import check_corollary_pvm_instrument, check_theorem2
from jointmeas.cli import _print_report, build_parser, cli_dispatch
from jointmeas.distances import D_inf
from jointmeas.io import load_povm, save_povm
from jointmeas.povm import Povm, bloch_pvm, noisy_qubit_povm, outcome_probabilities, random_povm
from jointmeas.smearing import coordinate_maps


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, povm in {
        "z": bloch_pvm((0, 0, 1)),
        "x": bloch_pvm((1, 0, 0)),
        "nz70": noisy_qubit_povm((0, 0, 1), 0.70),
        "nx70": noisy_qubit_povm((1, 0, 0), 0.70),
        "nz72": noisy_qubit_povm((0, 0, 1), 0.72),
        "nx72": noisy_qubit_povm((1, 0, 0), 0.72),
    }.items():
        p = tmp_path / f"{name}.json"
        save_povm(povm, p)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(argv, capsys):
    code = cli_dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# Each command that takes two POVM files, with the flags it needs to run
# (an output file goes under "{out}").
PAIR_COMMANDS = {
    "distance": ["--metric", "inf", "--witness-out", "{out}"],
    "bounds": ["--inequality", "cor-joint"],
    "check-joint": ["--witness-out", "{out}"],
    "frontier": ["--grid", "3", "--out", "{out}"],
}

INVALID_A = {
    "sums-to-half-identity": [[0.5, 0.0], [0.0, 0.5]],
    "negative-eigenvalue": [[1.2, 0.0], [-0.2, 1.0]],
    "sums-to-zero": [[1.0, 0.0], [-1.0, 0.0]],
}


def save_diagonal(path, rows):
    save_povm(Povm(("a0", "a1"), np.stack([np.diag(r).astype(complex) for r in rows])), path)
    return str(path)


class TestPairCommands:
    def test_help_for_every_subcommand(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        commands = re.search(r"\{([\w,-]+)\}", out).group(1).split(",")
        assert set(PAIR_COMMANDS) < set(commands)
        for command in commands:
            code, out, _ = run([command, "--help"], capsys)
            assert code == 0
            assert ("--lenient" in out) == (command in PAIR_COMMANDS)

    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    def test_strict_mode_rejects_invalid_a(self, command, files, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran on an invalid POVM")

        monkeypatch.setattr(feasibility, "_douglas_rachford", no_solve)
        bad = save_diagonal(files["dir"] / "bad.json", INVALID_A["negative-eigenvalue"])
        out = files["dir"] / "out"
        flags = [f.format(out=out) for f in PAIR_COMMANDS[command]]
        code, stdout, err = run([command, bad, files["x"], *flags], capsys)
        assert code == 1
        assert "not a valid POVM" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["distance", "check-joint"])
    def test_unwritable_witness_prints_no_report(self, command, files, capsys):
        out = files["dir"] / "missing" / "w.json"
        flags = [f.format(out=out) for f in PAIR_COMMANDS[command]]
        code, stdout, err = run([command, files["nz70"], files["nx70"], *flags], capsys)
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


class TestValidate:
    def test_valid_file(self, files, capsys):
        code, out, _ = run(["validate", files["z"]], capsys)
        assert code == 0
        assert "valid" in out

    def test_trivial_pair_file(self, tmp_path, capsys):
        trivial = Povm(("h", "t"), np.stack([np.eye(2, dtype=complex) / 2] * 2))
        path = tmp_path / "trivial.json"
        save_povm(trivial, path)
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 0
        assert "valid" in out

    def test_invalid_file(self, tmp_path, capsys):
        bad = Povm(("a", "b"), np.stack([np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])]))
        path = tmp_path / "bad.json"
        save_povm(bad, path)
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 1
        assert "positivity" in out

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert "line" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["validate", str(tmp_path / "absent.json")], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{\x00}\x00",
            b'{"format_version": "1", "dim": 1, "outcomes": ["a"], "elements": {"a": [[%s, 0]]}}'
            % (b"9" * 401),
        ],
        ids=["non-utf8", "integer-too-large-for-a-float"],
    )
    def test_unreadable_content_is_a_parse_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


class TestDistance:
    def test_value_and_witness_file(self, files, capsys):
        witness = str(files["dir"] / "w.json")
        code, out, _ = run(
            ["distance", "--metric", "inf", files["z"], files["x"], "--witness-out", witness],
            capsys,
        )
        assert code == 0
        assert "value = 0.707106781187" in out
        doc = json.loads(Path(witness).read_text())
        assert (doc["format_version"], doc["dim"]) == ("1", 2)
        rho = np.array([complex(x, y) for x, y in doc["matrix"]]).reshape(2, 2)
        a, _ = load_povm(files["z"])
        b, _ = load_povm(files["x"])
        assert rho.tobytes() == D_inf(a, b).witness_state.tobytes()
        pa = outcome_probabilities(a, rho[None])[0]
        pb = outcome_probabilities(b, rho[None])[0]
        assert float(np.abs(pa - pb).max()) == pytest.approx(1 / np.sqrt(2), abs=1e-8)

    def test_l1_metric(self, files, capsys):
        code, out, _ = run(["distance", "--metric", "l1", files["z"], files["x"]], capsys)
        assert code == 0
        assert "witness_subset" in out

    def test_strict_mode_rejects_invalid(self, tmp_path, capsys):
        bad = Povm(("a", "b"), np.stack([np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])]))
        path = tmp_path / "bad.json"
        save_povm(bad, path)
        good = tmp_path / "good.json"
        save_povm(bloch_pvm((0, 0, 1)), good)
        code, _, err = run(["distance", "--metric", "inf", str(path), str(good)], capsys)
        assert code == 1
        assert "not a valid POVM" in err

    def test_capacity_error_exits_one(self, tmp_path, capsys):
        n = 21
        wide = Povm(tuple(f"o{k}" for k in range(n)), np.stack([np.eye(2, dtype=complex) / n] * n))
        path = tmp_path / "wide.json"
        save_povm(wide, path)
        code, out, err = run(["distance", "--metric", "l1", str(path), str(path)], capsys)
        assert code == 1
        assert err == (
            "error: the total-variation observable distance enumerates all subsets of 21 "
            "outcomes; the supported maximum is 20\n"
        )
        assert out == ""

    def test_l1_tie_names_the_smallest_mask(self, tmp_path, capsys):
        # {o0, o1} and {o1} tie; the smaller mask, {o1}, is the witness
        p = np.diag([1.0, 0.0])
        third = np.eye(2, dtype=complex) / 3
        outcomes = ("o0", "o1", "o2")
        save_povm(Povm(outcomes, np.stack([third] * 3)), tmp_path / "a.json")
        b = np.stack([third, third - 0.2 * p, third + 0.2 * p])
        save_povm(Povm(outcomes, b), tmp_path / "b.json")
        code, out, _ = run(
            ["distance", "--metric", "l1", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
            capsys,
        )
        assert code == 0
        assert "witness_subset = {o1}\n" in out

    def test_lenient_mode_warns(self, tmp_path, capsys):
        slightly_off = Povm(
            ("a", "b"),
            np.stack([1.0000001 * np.eye(2) / 2, 1.0000001 * np.eye(2) / 2]),
        )
        path = tmp_path / "off.json"
        save_povm(slightly_off, path)
        code, out, err = run(
            ["distance", "--metric", "inf", str(path), str(path), "--lenient"], capsys
        )
        assert code == 0
        assert "warning" in err


# Every `bounds` report on one seeded generic qutrit instance, as printed:
# random A and B with four outcomes each, a random joint observable on their
# product outcomes, and the computational basis as the projective joint of
# the instrument bound. A change in any printed number fails here.
QUTRIT_REPORTS = {
    "theorem1": """inequality = theorem1
X = 0.36155104502
Y = 0.41743326982
V_A = 0.246180227953
V_B = 0.246837223804
lhs = 3.12873384959
rhs = 0.106047032952
slack = 3.02268681663
satisfied = true
""",
    "theorem2": """inequality = theorem2
X = 0.486585671131
Y = 0.41743326982
V_A = 0.249060132595
V_B = 0.249742561441
lhs = 3.61298478918
rhs = 0.127815882853
slack = 3.48516890633
satisfied = true
""",
    "cor-joint": """inequality = cor_joint
X = 0
Y = 0
V_A = 0.246180227953
V_B = 0.246837223804
lhs = 0.246508507
rhs = 0.053023516476
slack = 0.193484990524
satisfied = true
note = necessary condition only: a violation certifies that the pair is not jointly measurable; satisfaction is inconclusive
""",
    "cor-pvm-instrument": """inequality = cor_pvm_instrument
X = 0.920498677841
Y = 0.820201075514
V_A = 0
V_B = 0
lhs = 3.2506877645
rhs = 0.106047032952
slack = 3.14464073155
satisfied = true
""",
}


class TestBounds:
    @pytest.fixture
    def joint_argv(self, files):
        """theorem1 on z and x with a three-outcome joint POVM and valid
        maps; returns the argv and a writer for replacement map files."""
        joint = Povm(
            ("o0", "o1", "o2"),
            np.stack([np.diag(r).astype(complex) for r in ([1, 0], [0, 0.5], [0, 0.5])]),
        )
        jpath = files["dir"] / "joint3.json"
        save_povm(joint, jpath)

        def write(name, lines):
            path = files["dir"] / name
            path.write_text("".join(f"{line}\n" for line in lines))
            return str(path)

        argv = ["bounds", "--inequality", "theorem1", files["z"], files["x"], "--joint", str(jpath)]
        argv += ["--map-a", write("ma3.txt", ["o0 +", "o1 -", "o2 -"])]
        argv += ["--map-b", write("mb3.txt", ["o0 +", "o1 +", "o2 -"])]
        return argv, write

    def test_valid_maps_on_a_three_outcome_joint(self, joint_argv, capsys):
        argv, _ = joint_argv
        code, out, err = run(argv, capsys)
        assert code == 0
        assert "satisfied = true" in out
        assert err == ""

    def test_qutrit_joint_is_a_dimension_mismatch(self, joint_argv, capsys, tmp_path):
        argv, _ = joint_argv
        path = tmp_path / "joint3q.json"
        save_povm(random_povm(3, 3, 5), path)
        argv[argv.index("--joint") + 1] = str(path)
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == "error: dimension mismatch: 2 vs 3\n"

    @pytest.mark.parametrize("flag", ["--map-a", "--map-b"])
    @pytest.mark.parametrize(
        "lines, message",
        [
            (["o0 +", "o1 -"], "assignment is not total: missing ['o2']"),
            (["o0 +", "o1 -", "o2 -", "o9 +"], "assignment maps labels outside the source set: ['o9']"),
            (["o0 +", "o1 -", "o2 q"], "assignment hits labels outside the target set: [('o2', 'q')]"),
        ],
        ids=["missing-source", "extra-source", "unknown-target"],
    )
    def test_bad_map_names_its_flag(self, flag, lines, message, joint_argv, capsys):
        argv, write = joint_argv
        argv[argv.index(flag) + 1] = write("bad.txt", lines)
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err == f"error: {flag}: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("flag", ["--map-a", "--map-b"])
    def test_unparsable_map_is_a_parse_error(self, flag, joint_argv, capsys):
        argv, write = joint_argv
        argv[argv.index(flag) + 1] = write("bad.txt", ["o0 + -", "o1 -", "o2 -"])
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "line 1" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--map-a", "--map-b"])
    def test_map_without_assignments_is_a_parse_error(self, flag, joint_argv, capsys):
        argv, write = joint_argv
        path = write("empty.txt", ["# no assignments", ""])
        argv[argv.index(flag) + 1] = path
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: {path}: no assignment lines found\n"
        assert out == ""

    @pytest.mark.parametrize("flag", ["--map-a", "--map-b"])
    def test_non_utf8_map_is_a_parse_error(self, flag, joint_argv, capsys, tmp_path):
        argv, _ = joint_argv
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"o0 +\no1 \xff\no2 -\n")
        argv[argv.index(flag) + 1] = str(path)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    def test_cor_joint_violated_reports_and_exits_zero(self, files, capsys):
        code, out, _ = run(
            ["bounds", "--inequality", "cor-joint", files["nz72"], files["nx72"]], capsys
        )
        assert code == 0
        assert "satisfied = false" in out
        assert "necessary condition" in out

    def test_theorem1_with_joint_files(self, files, capsys):
        a, _ = load_povm(files["z"])
        b, _ = load_povm(files["x"])
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        k = len(f_a.source)
        joint = Povm(f_a.source, np.stack([np.eye(2, dtype=complex) / k] * k))
        jpath = files["dir"] / "joint.json"
        save_povm(joint, jpath)
        map_a = files["dir"] / "ma.txt"
        map_b = files["dir"] / "mb.txt"
        map_a.write_text("".join(f"{s} {f_a.assignment[s]}\n" for s in f_a.source))
        map_b.write_text("".join(f"{s} {f_b.assignment[s]}\n" for s in f_b.source))
        code, out, _ = run(
            [
                "bounds",
                "--inequality",
                "theorem1",
                files["z"],
                files["x"],
                "--joint",
                str(jpath),
                "--map-a",
                str(map_a),
                "--map-b",
                str(map_b),
            ],
            capsys,
        )
        assert code == 0
        assert "X = 0.5" in out
        assert "lhs = 3.5" in out
        assert "satisfied = true" in out

    @pytest.mark.parametrize("inequality", ["theorem2", "cor-pvm-instrument"])
    def test_prints_the_library_report(self, inequality, files, capsys):
        a, _ = load_povm(files["z"])
        b, _ = load_povm(files["x"])
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        if inequality == "theorem2":
            k = len(f_a.source)
            joint = Povm(f_a.source, np.stack([np.eye(2, dtype=complex) / k] * k))
            check = check_theorem2
        else:
            # the sharp z measurement embedded into the product outcome set
            mats = {p: np.zeros((2, 2), dtype=complex) for p in f_a.source}
            mats["+|+"] = a["+"]
            mats["-|-"] = a["-"]
            joint = Povm(f_a.source, np.stack([mats[p] for p in f_a.source]))
            check = check_corollary_pvm_instrument
        jpath = files["dir"] / "joint.json"
        save_povm(joint, jpath)
        map_a = files["dir"] / "ma.txt"
        map_b = files["dir"] / "mb.txt"
        map_a.write_text("".join(f"{s} {f_a.assignment[s]}\n" for s in f_a.source))
        map_b.write_text("".join(f"{s} {f_b.assignment[s]}\n" for s in f_b.source))
        argv = ["bounds", "--inequality", inequality, files["z"], files["x"], "--joint", str(jpath)]
        code, out, _ = run([*argv, "--map-a", str(map_a), "--map-b", str(map_b)], capsys)
        assert code == 0
        f_povm, _ = load_povm(jpath)
        _print_report(check(a, b, f_povm, f_a, f_b))
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("inequality", QUTRIT_REPORTS)
    def test_report_bytes_on_a_seeded_qutrit_instance(self, inequality, tmp_path, capsys):
        a, b = random_povm(3, 4, 61), random_povm(3, 4, 62)
        if inequality == "cor-pvm-instrument":
            basis = np.stack([np.diag(r).astype(complex) for r in np.eye(3)])
            joint = Povm(("e0", "e1", "e2"), basis)
            map_a = {"e0": "o0", "e1": "o1", "e2": "o3"}
            map_b = {"e0": "o2", "e1": "o0", "e2": "o2"}
        else:
            f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
            joint = Povm(f_a.source, random_povm(3, len(f_a.source), 63).elements)
            map_a, map_b = f_a.assignment, f_b.assignment
        for name, povm in {"a": a, "b": b, "joint": joint}.items():
            save_povm(povm, tmp_path / f"{name}.json")
        for name, assignment in {"ma": map_a, "mb": map_b}.items():
            (tmp_path / f"{name}.txt").write_text(
                "".join(f"{s} {t}\n" for s, t in assignment.items())
            )
        argv = ["bounds", "--inequality", inequality, str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        if inequality != "cor-joint":
            argv += ["--joint", str(tmp_path / "joint.json")]
            argv += ["--map-a", str(tmp_path / "ma.txt"), "--map-b", str(tmp_path / "mb.txt")]
        assert run(argv, capsys) == (0, QUTRIT_REPORTS[inequality], "")

    def test_theorem2_past_the_subset_pair_limit_exits_one(self, tmp_path, capsys):
        a, b = random_povm(2, 11, 71), random_povm(2, 11, 72)
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        joint = Povm(f_a.source, random_povm(2, len(f_a.source), 73).elements)
        for name, povm in {"a": a, "b": b, "joint": joint}.items():
            save_povm(povm, tmp_path / f"{name}.json")
        for name, f in {"ma": f_a, "mb": f_b}.items():
            (tmp_path / f"{name}.txt").write_text(
                "".join(f"{s} {t}\n" for s, t in f.assignment.items())
            )
        pa, pb, pj = (str(tmp_path / f"{name}.json") for name in ("a", "b", "joint"))
        argv = ["bounds", "--inequality", "theorem2", pa, pb, "--joint", pj]
        argv += ["--map-a", str(tmp_path / "ma.txt"), "--map-b", str(tmp_path / "mb.txt")]
        assert run(argv, capsys) == (
            1,
            "",
            "error: the subset commutator bound enumerates all subset pairs of 11 and 11 "
            "outcomes, as many as the subsets of 21; the supported maximum is 20\n",
        )

    def test_missing_joint_is_usage_error(self, files, capsys):
        code, _, err = run(
            ["bounds", "--inequality", "theorem1", files["z"], files["x"]], capsys
        )
        assert code == 2
        assert "--joint" in err


class TestCheckJoint:
    def test_feasible_writes_witness(self, files, capsys):
        witness = str(files["dir"] / "witness.json")
        code, out, _ = run(
            ["check-joint", files["nz70"], files["nx70"], "--witness-out", witness], capsys
        )
        assert code == 0
        assert "status = feasible" in out
        loaded, violations = load_povm(witness)
        assert violations == []
        assert len(loaded.outcomes) == 4

    def test_boundary_pair_feasible(self, files, capsys):
        # the marginals of a random rank-one four-outcome qubit POVM
        # (`joint_marginals(13, 0.0)` of test_feasibility.py): jointly
        # measurable, on the boundary, where the joint observable is unique
        rng = np.random.default_rng(13)
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        f = linalg.renormalize(np.einsum("ki,kj->kij", v, np.conj(v)), 1e-12).reshape(2, 2, 2, 2)
        paths = [files["dir"] / "a13.json", files["dir"] / "b13.json"]
        save_povm(Povm(("a0", "a1"), f.sum(axis=1)), paths[0])
        save_povm(Povm(("b0", "b1"), f.sum(axis=0)), paths[1])
        witness = files["dir"] / "w13.json"
        code, out, _ = run(["check-joint", *map(str, paths), "--witness-out", str(witness)], capsys)
        assert code == 0
        assert "status = feasible" in out.splitlines()
        assert load_povm(witness)[1] == []

    def test_infeasible_exits_one(self, files, capsys):
        code, out, _ = run(["check-joint", files["nz72"], files["nx72"]], capsys)
        assert code == 1
        assert "status = infeasible" in out

    @pytest.mark.parametrize("budget", [[], ["--max-iter", "30"]], ids=["default", "max-iter-30"])
    def test_dual_certificate_decides_qutrit_mubs(self, budget, files, capsys):
        # computational and Fourier bases in d = 3 with white noise, above
        # the joint-measurability threshold (1 + 1/(sqrt(3) + 1))/2 = 0.683,
        # where the paper's necessary condition holds
        eta = 0.693
        w = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
        paths = []
        for name, basis in (("z3", np.eye(3, dtype=complex)), ("f3", w)):
            elems = np.stack([eta * np.outer(v, np.conj(v)) + (1 - eta) * np.eye(3) / 3 for v in basis.T])
            paths.append(files["dir"] / f"{name}.json")
            save_povm(Povm(tuple(f"{name}_{k}" for k in range(3)), elems), paths[-1])
        witness = files["dir"] / "w.json"
        code, out, _ = run(
            ["check-joint", *map(str, paths), "--witness-out", str(witness), *budget], capsys
        )
        assert code == 1
        assert "status = infeasible" in out.splitlines()
        note = next(line for line in out.splitlines() if line.startswith("note = "))
        assert "dual certificate" in note
        assert "witness_file" not in out
        assert not witness.exists()

    def test_dimension_mismatch_exits_one(self, files, capsys):
        qutrit = files["dir"] / "q3.json"
        save_povm(random_povm(3, 2, seed=1), qutrit)
        out = files["dir"] / "w.json"
        code, stdout, err = run(
            ["check-joint", files["z"], str(qutrit), "--witness-out", str(out)], capsys
        )
        assert (code, stdout, err) == (1, "", "error: dimension mismatch: 2 vs 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    def test_nonpositive_max_iter_rejected(self, max_iter, files, capsys):
        out = files["dir"] / "w.json"
        code, stdout, err = run(
            ["check-joint", files["nz70"], files["nx70"], "--max-iter", max_iter,
             "--witness-out", str(out)],
            capsys,
        )
        assert code == 1
        assert "max_iter" in err
        assert stdout == ""
        assert not out.exists()


class TestQubitDemo:
    def test_deterministic_csv(self, files, capsys):
        out1 = files["dir"] / "c1.csv"
        out2 = files["dir"] / "c2.csv"
        for out in (out1, out2):
            code, _, _ = run(
                ["qubit-demo", "--theta", "1.5707963267948966", "--grid", "40", "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, first = out1.read_text().splitlines()[:2]
        assert header == "X,Y_cor1,Y_heinosaari"
        assert first == "0,0.5,0.292893218813"

    @pytest.mark.parametrize(
        "theta, shown", [("nan", "nan"), ("inf", "inf"), ("3", "3.0"), ("-0.1", "-0.1")]
    )
    def test_theta_out_of_range_rejected(self, theta, shown, files, capsys):
        out = files["dir"] / "c.csv"
        code, stdout, err = run(
            ["qubit-demo", "--theta", theta, "--grid", "5", "--out", str(out)], capsys
        )
        assert code == 1
        assert err == f"error: theta must lie in [0, pi/2], got {shown}\n"
        assert stdout == ""
        assert not out.exists()

    def test_single_grid_point_rejected(self, files, capsys):
        out = files["dir"] / "c.csv"
        code, stdout, err = run(
            ["qubit-demo", "--theta", "0.5", "--grid", "1", "--out", str(out)], capsys
        )
        assert code == 1
        assert err == "error: grid_size must be >= 2, got 1\n"
        assert stdout == ""
        assert not out.exists()


class TestFrontier:
    def test_small_commuting_sweep(self, files, capsys):
        a = Povm(("a0", "a1"), np.stack([np.diag([1.0, 0.0]).astype(complex),
                                         np.diag([0.0, 1.0]).astype(complex)]))
        b = Povm(("b0", "b1"), np.stack([np.diag([0.7, 0.2]).astype(complex),
                                         np.diag([0.3, 0.8]).astype(complex)]))
        pa = files["dir"] / "ca.json"
        pb = files["dir"] / "cb.json"
        save_povm(a, pa)
        save_povm(b, pb)
        out = files["dir"] / "front.csv"
        code, _, _ = run(
            ["frontier", str(pa), str(pb), "--grid", "3", "--out", str(out),
             "--resolution", "1e-3"],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X_target,X_achieved,Y_achieved"
        assert len(lines) == 4
        # commuting pair: Y = 0 achievable everywhere
        for line in lines[1:]:
            assert float(line.split(",")[2]) <= 1e-3

    @pytest.mark.parametrize("rows", INVALID_A.values(), ids=INVALID_A.keys())
    def test_lenient_invalid_a_without_a_baseline_exits_one(self, rows, files, capsys):
        bad = save_diagonal(files["dir"] / "bad.json", rows)
        out = files["dir"] / "front.csv"
        code, stdout, err = run(
            ["frontier", bad, files["x"], "--grid", "3", "--out", str(out), "--lenient"], capsys
        )
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [
            "error: no product baseline meets the X budget 0; the inputs may not be valid POVMs"
        ]
        assert err.startswith("warning: ")
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    def test_negative_x_max_rejected(self, files, capsys):
        out = files["dir"] / "front.csv"
        code, _, err = run(
            ["frontier", files["z"], files["x"], "--grid", "6", "--out", str(out),
             "--x-max", "-0.1"],
            capsys,
        )
        assert code == 1
        assert "nonnegative" in err
        assert not out.exists()

    def test_empty_grid_rejected(self, files, capsys):
        out = files["dir"] / "front.csv"
        code, stdout, err = run(
            ["frontier", files["z"], files["x"], "--grid", "0", "--out", str(out)], capsys
        )
        assert code == 1
        assert err == "error: n_points must be >= 1, got 0\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--resolution", "-0.001"], "y_resolution"),
            (["--resolution", "nan"], "y_resolution"),
            (["--x-max", "nan"], "x_max"),
            (["--max-iter", "0"], "max_iter"),
        ],
        ids=["res-negative", "res-nan", "x-max-nan", "iter-zero"],
    )
    def test_bad_budget_rejected_before_solving(self, flags, message, files, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran before its budgets were checked")

        monkeypatch.setattr(feasibility, "_douglas_rachford", no_solve)
        out = files["dir"] / "front.csv"
        code, _, err = run(
            ["frontier", files["z"], files["x"], "--grid", "6", "--out", str(out), *flags],
            capsys,
        )
        assert code == 1
        assert message in err
        assert not out.exists()


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(["selftest", "--trials", "5", "--seed", "7"], capsys)
        assert code == 0
        assert "total violations = 0" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_rejected(self, trials, capsys):
        code, out, err = run(["selftest", "--trials", trials], capsys)
        assert code == 1
        assert "trials" in err
        assert out == ""

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(["selftest", "--seed", "-1"], capsys)
        assert code == 1
        assert "seed must be >= 0, got -1" in err
        assert out == ""


def fresh_process(argv):
    """Run `python -m jointmeas.cli argv` in a new interpreter 80 columns
    wide: (exit code, stdout, stderr)."""
    src = str(Path(jointmeas.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jointmeas.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def take_outputs(paths):
    """The bytes of every output file that exists, removing each."""
    found = {}
    for path in paths:
        if path.exists():
            found[path.name] = path.read_bytes()
            path.unlink()
    return found


class TestInProcessDispatch:
    """`cli_dispatch` builds its parser once and reuses it; every call
    behaves as it would in a fresh process."""

    def test_later_dispatches_build_no_parser(self, files, capsys, monkeypatch):
        witness = str(files["dir"] / "w.json")
        argvs = [
            ["check-joint", files["nz70"], files["nx70"], "--witness-out", witness],
            ["distance", "--metric", "inf", files["z"], files["x"]],
            ["validate", files["z"]],
        ]
        run(argvs[0], capsys)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for k in range(10):
            code, _, _ = run(argvs[k % 3], capsys)
            assert code == 0
        assert built == []

    def test_errors_and_help_leave_no_state(self, files, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        witness = files["dir"] / "w.json"
        argv = ["check-joint", files["nz70"], files["nx70"], "--witness-out", str(witness)]
        build_parser.cache_clear()
        alone = (*run(argv, capsys), take_outputs([witness]))

        code, out, err = run(["distance", files["z"], files["x"]], capsys)
        assert code == 2
        assert out == ""
        assert "--metric" in err
        code, help_text, err = run(["check-joint", "--help"], capsys)
        assert code == 0
        assert err == ""
        assert (*run(argv, capsys), take_outputs([witness])) == alone
        assert alone[0] == 0
        assert (0, help_text, "") == fresh_process(["check-joint", "--help"])

    def test_one_process_matches_fresh_processes(self, files, capsys):
        d = files["dir"]
        outputs = [d / "state.json", d / "witness.json", d / "front.csv"]
        sequence = [
            ["validate", files["z"]],
            ["distance", "--metric", "l1", files["z"], files["x"], "--witness-out", str(outputs[0])],
            ["check-joint", files["nz70"], files["nx70"], "--witness-out", str(outputs[1])],
            ["bounds", "--inequality", "cor-joint", files["nz72"], files["nx72"]],
            ["frontier", files["z"], files["x"], "--grid", "3", "--out", str(outputs[2])],
        ]
        runs = [
            [(*run(argv, capsys), take_outputs(outputs)) for argv in sequence],
            [(*run(argv, capsys), take_outputs(outputs)) for argv in sequence],
            [(*fresh_process(argv), take_outputs(outputs)) for argv in sequence],
        ]
        assert runs[0] == runs[1] == runs[2]
        assert [len(files_written) for *_, files_written in runs[0]] == [0, 1, 1, 0, 1]
