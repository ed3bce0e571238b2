"""Tests for the command-line front end.

The JSON output is the canonical machine format; every invocation with
fixed flags must be byte-identical across runs.  Exit codes: 0 all
checks pass, 1 a verification failed (with the failure records in the
report), 2 invalid flags or a brute-force cap hit.
"""

import ast
import importlib
import json
import os
from pathlib import Path
import subprocess
import sys
import types

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import dsplitlevi
import dsplitlevi.cli as cli
from dsplitlevi import cliff, levi, torus
from dsplitlevi.cli import main, parse_grid


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def run_json(*args):
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestGridParsing:
    def test_single(self):
        assert parse_grid("4") == (4,)

    def test_span(self):
        assert parse_grid("2..5") == (2, 3, 4, 5)

    def test_list(self):
        assert parse_grid("5,3,3") == (3, 5)

    def test_mixed(self):
        assert parse_grid("1..2,4") == (1, 2, 4)

    @pytest.mark.parametrize("bad", ["", "abc", "3..1", "0", "2,,3", "-1"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)

    def test_invalid_grid_is_usage_error(self):
        assert invoke("verify", "eq1", "--n", "abc").exit_code == 2
        assert invoke("verify", "eq1", "--n", "3..1").exit_code == 2


class TestLevis:
    def test_frozen_example(self):
        report = run_json("levis", "--n", "2", "--d", "4", "--q", "3")
        assert report["count"] == 2
        orders = {rec["order"] for rec in report["labels"]}
        assert orders == {51840, 10}

    def test_without_q_orders_are_null(self):
        report = run_json("levis", "--n", "2", "--d", "4")
        assert report["q"] is None
        assert all(rec["order"] is None for rec in report["labels"])

    def test_q_must_be_odd_prime_power(self):
        assert invoke("levis", "--n", "2", "--d", "4", "--q", "4").exit_code == 2
        assert invoke("levis", "--n", "2", "--d", "4", "--q", "15").exit_code == 2
        assert invoke("levis", "--n", "2", "--d", "4", "--q", "9").exit_code == 0

    def test_missing_required_flag(self):
        assert invoke("levis", "--n", "2").exit_code == 2

    def test_q_is_factored_once_per_command(self, monkeypatch):
        calls, prime_power = [], levi.prime_power

        def counted(q):
            calls.append(q)
            return prime_power(q)

        monkeypatch.setattr(levi, "prime_power", counted)
        levi.check_odd_prime_power.cache_clear()
        report = run_json("levis", "--n", "7", "--d", "1", "--q", "5")
        assert report["count"] > 1000
        assert calls == [5]
        # The cache keys on type as well: a float or bool equal to a
        # cached q is still refused (untyped, q=3.0 would hit q=3).
        check = levi.check_odd_prime_power
        assert check(3) == check(q=3) == (3, 1)
        with pytest.raises(ValueError):
            check(1)
        for bad in (3.0, True):
            with pytest.raises(ValueError):
                check(bad)
            with pytest.raises(ValueError):
                check(q=bad)

    def test_tsv_and_text_render(self):
        tsv = invoke("levis", "--n", "2", "--d", "4", "--format", "tsv")
        assert tsv.exit_code == 0
        lines = tsv.output.strip().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert "I_minus1" in header.split("\t")
        text = invoke("levis", "--n", "2", "--d", "4", "--format", "text")
        assert text.exit_code == 0
        assert "count: 2" in text.output


class TestRelweyl:
    def test_verified_labels(self):
        report = run_json("relweyl", "--n", "2", "--d", "4")
        assert report["pass"] is True
        assert all(rec["verified"] for rec in report["labels"])
        orders = {rec["order"] for rec in report["labels"]}
        assert orders == {4, 1}

    def test_no_check_leaves_null(self):
        report = run_json("relweyl", "--n", "3", "--d", "2", "--no-check")
        assert all(rec["verified"] is None for rec in report["labels"])
        assert report["pass"] is True


class TestVerify:
    def test_centralizers_small(self):
        report = run_json("verify", "centralizers", "--n", "2")
        assert report["pass"] is True and report["checked"] == 8

    def test_normalizers_small(self):
        report = run_json("verify", "normalizers", "--n", "1..2")
        assert report["pass"] is True
        # n=1: 1 partition * 2 flags; n=2: (2 blocks)*4 + (1 block)*2
        assert report["checked"] == 8

    def test_eq1_small(self):
        report = run_json("verify", "eq1", "--n", "2", "--d", "1..3")
        assert report["pass"] is True and report["checked"] == 15

    def test_extweyl_small(self):
        report = run_json("verify", "extweyl", "--n", "2", "--d", "1,4")
        assert report["pass"] is True

    def test_torus_small(self):
        report = run_json("verify", "torus", "--q", "3", "--d", "1..2")
        assert report["pass"] is True and report["checked"] == 8

    def test_unknown_suite(self):
        assert invoke("verify", "nonsense").exit_code == 2

    def test_rejects_foreign_grid(self):
        assert invoke("verify", "torus", "--n", "2").exit_code == 2
        assert invoke("verify", "centralizers", "--d", "2").exit_code == 2

    def test_rejects_even_q(self):
        assert invoke("verify", "torus", "--q", "2..3").exit_code == 2

    def test_failure_exits_one_with_record(self, monkeypatch):
        def broken(grids, cap):
            return 1, [{"n": 2, "detail": "synthetic"}]
        monkeypatch.setitem(cli.SUITES, "centralizers",
                            (broken, ("n",), {"n": (2,)}))
        result = invoke("verify", "centralizers")
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["pass"] is False
        assert report["failures"] == [{"n": 2, "detail": "synthetic"}]


# Run in a fresh interpreter under ``python -O`` (asserts stripped): corrupt
# one input of a verification suite and report how the command ended.
_UNDER_O = """
import sys
from click.testing import CliRunner
from dsplitlevi import cli, extweyl, torus
from dsplitlevi.signedperm import SignedPerm

if sys.argv[1] == "extweyl":
    extweyl.wprime = lambda J, n: SignedPerm.identity(n)
    args = ["verify", "extweyl", "--n", "2", "--d", "2"]
else:
    torus._conj_action = lambda h, orbit: h
    args = ["verify", "torus", "--q", "3", "--d", "1"]
result = CliRunner().invoke(cli.main, args)
print(sys.flags.optimize, result.exit_code, type(result.exception).__name__)
print(result.output)
"""


class TestChecksUnderOptimize:
    def _run(self, suite):
        src = os.path.dirname(os.path.dirname(dsplitlevi.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O, suite],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        status, output = proc.stdout.split("\n", 1)
        return status.split(), output

    def test_corrupted_lift_raises(self):
        # c_1 no longer projects onto the replaced w'_J.
        status, _ = self._run("extweyl")
        assert status == ["1", "1", "VerificationError"]

    def test_torus_suite_reports_failed_exponent_check(self):
        status, output = self._run("torus")
        assert status == ["1", "1", "SystemExit"]
        report = json.loads(output)
        assert report["pass"] is False
        assert report["failures"][0]["check"] == "conjugation_exponents"

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, and with them the check.
        found = []
        for path in sorted(Path(dsplitlevi.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert found == []


class TestTracedNames:
    def test_every_traced_name_resolves(self):
        # perfbench/tracing.py wraps these names by lookup, so deleting or
        # renaming one must fail here and not only in perfbench/selftest.py.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        tracing = types.ModuleType("tracing")
        exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
        missing = []
        for module, names in tracing.LAYERS.items():
            mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
            for name in names:
                try:
                    tracing._originals(mod, name)
                except (AttributeError, KeyError):
                    missing.append(f"{module}.{name}")
        assert missing == []


class TestNoSympy:
    """sympy cost most of the start-up of every command; the package's
    integer routines replace it, and it stays a test-only dependency."""

    def test_cli_import_loads_no_sympy(self):
        src = os.path.dirname(os.path.dirname(dsplitlevi.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, dsplitlevi.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))")
        proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert proc.stdout.strip() == "[]"

    def test_package_does_not_import_sympy(self):
        found = []
        for path in sorted(Path(dsplitlevi.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "sympy"]
        assert found == []


class TestCapExit:
    @pytest.mark.parametrize("args, cap", [
        (("verify", "normalizers", "--n", "2", "--cap", "3"), 3),
        (("kinva", "--n", "2", "--d", "1", "--cap", "2"), 2),
        (("chartab", "--group", "s4", "--cap", "5"), 5),
    ], ids=["verify", "kinva", "chartab"])
    def test_cap_hit_exits_2_with_one_line(self, args, cap, monkeypatch):
        # A memoized report needs no enumeration, so start from none.
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        result = invoke(*args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and f"exceeds cap {cap}" in lines[0]

    def test_below_the_cap_runs(self):
        assert run_json("chartab", "--group", "s4", "--cap", "24")["order"] == 24

    @pytest.mark.parametrize("args", [
        ("kinva", "--n", "2", "--d", "1"),
        ("verify", "extweyl", "--n", "2", "--d", "1"),
    ], ids=["kinva", "extweyl"])
    def test_memoized_run_respects_a_smaller_cap(self, args, monkeypatch):
        # Cold, kinva exceeds cap 2 and extweyl (V_2, order 32) cap 31.
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        cap = ("--cap", "2" if args[0] == "kinva" else "31")
        cold = invoke(*args, *cap)
        assert invoke(*args).exit_code == 0
        warm = invoke(*args, *cap)
        assert cold.exit_code == warm.exit_code == 2
        assert cold.stderr == warm.stderr and "exceeds cap" in warm.stderr


class TestInputBounds:
    """Inputs past a documented bound exit 2 with one line naming it,
    before any factorisation or field table starts."""

    @staticmethod
    def refuse(*args):
        raise RuntimeError("work started")

    def _exit_2_naming(self, args, bound):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and bound in lines[0]

    @pytest.mark.parametrize("command", [
        ("levis", "--n", "2", "--d", "4"), ("verify", "torus")],
        ids=["levis", "verify-torus"])
    def test_q_bound(self, command, monkeypatch):
        monkeypatch.setattr(levi, "prime_power", self.refuse)
        self._exit_2_naming(command + ("--q", str(2 ** 64 + 1)), "2^64")

    def test_lang_tuple_bound(self, monkeypatch):
        # q=9, d=4 would enumerate (9^4 - 1)^2, about 43M tuples.
        monkeypatch.setattr(cli, "lang_map", self.refuse)
        self._exit_2_naming(("verify", "torus", "--q", "3,9", "--d", "4"),
                            str(cli.LANG_TUPLE_BOUND))

    @pytest.mark.parametrize("command", [
        ("levis", "--n", "10", "--d", "1"),
        ("levis", "--n", "20", "--d", "4"),
        ("relweyl", "--n", "10", "--d", "1", "--no-check")],
        ids=["levis-d1", "levis-d4", "relweyl"])
    def test_label_count_bound(self, command, monkeypatch):
        # Bell(11) = 678570 labels, past the bound.
        monkeypatch.setattr(levi.LeviLabel, "__init__", self.refuse)
        self._exit_2_naming(command, str(levi.LABEL_COUNT_BOUND))

    def test_field_order_bound(self, monkeypatch):
        monkeypatch.setattr(torus, "_field", self.refuse)
        self._exit_2_naming(("verify", "torus", "--q", "3", "--d", "100"),
                            str(torus.FIELD_ORDER_BOUND))


class TestKinva:
    def test_full_sweep_small(self):
        report = run_json("kinva", "--n", "2", "--d", "4")
        assert report["pass"] is True
        assert report["checked"] == report["candidates"] == 14
        assert report["failures"] == []

    def test_random_sample_is_seeded(self):
        a = invoke("kinva", "--n", "2", "--d", "4", "--random", "3",
                   "--seed", "11")
        b = invoke("kinva", "--n", "2", "--d", "4", "--random", "3",
                   "--seed", "11")
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        report = json.loads(a.output)
        assert report["checked"] == 3 and report["random"] == 3

    def test_full_reports_embedded(self):
        report = run_json("kinva", "--n", "2", "--d", "8", "--full")
        assert report["checked"] > 0
        assert len(report["reports"]) == report["checked"]
        assert all(r["pass"] for r in report["reports"])

    def test_wmax_filters(self):
        small = run_json("kinva", "--n", "2", "--d", "1", "--wmax", "1")
        big = run_json("kinva", "--n", "2", "--d", "1")
        assert small["candidates"] < big["candidates"]

    def test_rank_bound(self):
        assert invoke("kinva", "--n", "5", "--d", "1").exit_code == 2


class TestChartab:
    def test_s3(self):
        report = run_json("chartab", "--group", "s3")
        assert report["order"] == 6
        assert sorted(report["degrees"]) == [1, 1, 2]
        assert len(report["rows"]) == 3
        sizes = sorted(c["size"] for c in report["classes"])
        assert sizes == [1, 2, 3]

    def test_q8_and_d8_differ_in_reps_not_degrees(self):
        q8 = run_json("chartab", "--group", "q8")
        d8 = run_json("chartab", "--group", "d8")
        assert sorted(q8["degrees"]) == sorted(d8["degrees"]) == [1, 1, 1, 1, 2]

    def test_c4_values_are_fourth_roots(self):
        report = run_json("chartab", "--group", "c4")
        assert report["degrees"] == [1, 1, 1, 1]
        flat = {v for row in report["rows"] for v in row}
        assert flat <= {"1", "-1", "z4", "-z4"}

    def test_unknown_preset(self):
        assert invoke("chartab", "--group", "m11").exit_code == 2


class TestDeterminism:
    CASES = [
        ("levis", "--n", "3", "--d", "2", "--q", "3"),
        ("levis", "--n", "2", "--d", "4", "--format", "tsv"),
        ("relweyl", "--n", "2", "--d", "1"),
        ("verify", "eq1", "--n", "2", "--d", "1..2"),
        ("kinva", "--n", "2", "--d", "4"),
        ("kinva", "--n", "2", "--d", "4", "--random", "2", "--seed", "5"),
        ("chartab", "--group", "c4wrs2"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c))
    def test_byte_identical(self, case):
        a, b = invoke(*case), invoke(*case)
        assert a.exit_code == 0 and b.exit_code == 0
        assert a.stdout_bytes == b.stdout_bytes

    def test_json_is_canonical(self):
        out = invoke("levis", "--n", "2", "--d", "4").output
        parsed = json.loads(out)
        assert out.strip() == json.dumps(parsed, sort_keys=True,
                                         separators=(",", ":"))


# Every non-str value a report record can hold: ints of any size and sign,
# bools, None, and lists and str-keyed dicts of these (and of strs).
_RECORD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    lambda inner: st.lists(inner | st.text(), max_size=4)
    | st.dictionaries(st.text(), inner | st.text(), max_size=4),
    max_leaves=12)


class TestCellRendering:
    @given(_RECORD_VALUES)
    @settings(max_examples=300)
    def test_cell_is_canonical_json(self, value):
        assert cli._cell(value) == cli.canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))
