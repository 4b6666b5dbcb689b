"""The invariant linter (``repro.analysis.lint``).

Every rule gets a known-bad fixture (the violation is reported) and a
known-good one (the idiomatic spelling passes); the pragma and baseline
escape hatches are exercised end-to-end; and the tree self-hosts — the
last test runs the real CLI over the installed package with the committed
baseline, which is exactly the blocking CI job.
"""

import json
import textwrap

import pytest

from repro.analysis.lint import (
    ALL_RULES,
    Baseline,
    BaselineEntry,
    SourceFile,
    lint_sources,
    rule_by_id,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.core import PRAGMA_RULE_ID
from repro.analysis.lint.report import render_json, render_text


def run_rule(rule_id, rel_path, code, extra_files=()):
    """Lint ``code`` (dedented) as ``rel_path`` under one rule."""
    sources = [SourceFile(rel_path, textwrap.dedent(code))]
    for other_path, other_code in extra_files:
        sources.append(SourceFile(other_path, textwrap.dedent(other_code)))
    return lint_sources(sources, [rule_by_id(rule_id)])


def rules_of(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# sqrt-parity
# ----------------------------------------------------------------------


class TestSqrtParity:
    def test_flags_pow_half_operator(self):
        result = run_rule(
            "sqrt-parity",
            "repro/buffers/thing.py",
            """
            def voltage(energy, capacitance):
                return (2.0 * energy / capacitance) ** 0.5
            """,
        )
        assert rules_of(result) == ["sqrt-parity"]
        assert "** 0.5" in result.findings[0].message

    def test_flags_pow_call(self):
        result = run_rule(
            "sqrt-parity",
            "repro/core/thing.py",
            """
            import numpy as np

            def voltage(energy):
                return pow(energy, 0.5) + np.power(energy, 0.5)
            """,
        )
        assert rules_of(result) == ["sqrt-parity", "sqrt-parity"]

    def test_math_sqrt_and_other_powers_pass(self):
        result = run_rule(
            "sqrt-parity",
            "repro/buffers/thing.py",
            """
            import math

            def voltage(energy, capacitance):
                cube = energy ** 3
                return math.sqrt(2.0 * energy / capacitance) + cube
            """,
        )
        assert result.clean

    def test_out_of_package_files_are_out_of_scope(self):
        result = run_rule("sqrt-parity", "scripts/helper.py", "y = x ** 0.5\n")
        assert result.clean


# ----------------------------------------------------------------------
# ledger-sum
# ----------------------------------------------------------------------


class TestLedgerSum:
    def test_flags_builtin_and_numpy_sum(self):
        result = run_rule(
            "ledger-sum",
            "repro/buffers/ledger.py",
            """
            import numpy as np

            def totals(offered, stored):
                a = sum(offered)
                b = np.sum(stored)
                c = stored.sum()
                return a + b + c
            """,
        )
        assert rules_of(result) == ["ledger-sum"] * 3

    def test_sequential_adds_and_integer_counting_pass(self):
        result = run_rule(
            "ledger-sum",
            "repro/sim/batch.py",
            """
            def totals(offered, mask, enabled):
                total = 0.0
                for value in offered:
                    total += value
                lanes = int(enabled.sum())
                positives = (mask > 0).sum()
                return total, lanes, positives
            """,
        )
        assert result.clean

    def test_flags_the_react_core(self):
        result = run_rule(
            "ledger-sum",
            "repro/core/hardware.py",
            """
            def stored_energy(last_level, banks):
                return last_level + sum(bank.stored_energy for bank in banks)
            """,
        )
        assert rules_of(result) == ["ledger-sum"]

    def test_sum_outside_critical_modules_is_fine(self):
        result = run_rule(
            "ledger-sum", "repro/workloads/report.py", "x = sum([1.0, 2.0])\n"
        )
        assert result.clean


# ----------------------------------------------------------------------
# additive-time
# ----------------------------------------------------------------------


class TestAdditiveTime:
    def test_flags_time_reconstruction(self):
        result = run_rule(
            "additive-time",
            "repro/sim/engine.py",
            """
            def replay(start, steps, dt):
                for k in range(steps):
                    time = start + k * dt
                    yield time
            """,
        )
        assert rules_of(result) == ["additive-time"]

    def test_flags_self_attribute_reconstruction(self):
        result = run_rule(
            "additive-time",
            "repro/buffers/thing.py",
            """
            class Replayer:
                def jump(self, segments, dt):
                    self.sim_time = len(segments) * dt
            """,
        )
        assert rules_of(result) == ["additive-time"]

    def test_additive_accumulation_and_wall_clock_pass(self):
        result = run_rule(
            "additive-time",
            "repro/sim/engine.py",
            """
            def advance(time, dt, steps, dt_per_step):
                time += dt
                wall_time = steps * dt_per_step  # bookkeeping, not simulated
                elapsed_time = 3 * dt
                return time, wall_time, elapsed_time
            """,
        )
        assert result.clean


# ----------------------------------------------------------------------
# picklable-settings
# ----------------------------------------------------------------------


class TestPicklableSettings:
    def test_flags_lambda_in_settings(self):
        result = run_rule(
            "picklable-settings",
            "repro/experiments/thing.py",
            """
            def build():
                return ExperimentSettings(buffers=lambda: make())
            """,
        )
        assert rules_of(result) == ["picklable-settings"]
        assert "lambda" in result.findings[0].message

    def test_flags_nested_function_in_run_spec(self):
        result = run_rule(
            "picklable-settings",
            "repro/experiments/thing.py",
            """
            def build():
                def local_factory():
                    return 1

                return RunSpec(factory=local_factory)
            """,
        )
        assert rules_of(result) == ["picklable-settings"]
        assert "local_factory" in result.findings[0].message

    def test_flags_lambda_buffer_factory_on_any_call(self):
        result = run_rule(
            "picklable-settings",
            "repro/experiments/thing.py",
            """
            def build(grid):
                return grid.add(buffer_factory=lambda: make())
            """,
        )
        assert rules_of(result) == ["picklable-settings"]

    def test_module_level_callables_pass(self):
        result = run_rule(
            "picklable-settings",
            "repro/experiments/thing.py",
            """
            def make_buffer():
                return 1

            def build():
                return RunSpec(factory=make_buffer)
            """,
        )
        assert result.clean


# ----------------------------------------------------------------------
# exception-discipline
# ----------------------------------------------------------------------


class TestExceptionDiscipline:
    def test_flags_bare_and_silent_blanket_except(self):
        result = run_rule(
            "exception-discipline",
            "repro/experiments/store.py",
            """
            def load(path):
                try:
                    return path.read_text()
                except:
                    return None

            def load2(path):
                try:
                    return path.read_text()
                except Exception:
                    return None
            """,
        )
        assert rules_of(result) == ["exception-discipline"] * 2

    def test_logging_or_reraising_handlers_pass(self):
        result = run_rule(
            "exception-discipline",
            "repro/experiments/store.py",
            """
            import logging

            log = logging.getLogger(__name__)


            def load(path):
                try:
                    return path.read_text()
                except Exception as error:
                    log.warning("corrupt entry %s treated as a miss: %s", path, error)
                    return None


            def strict(path):
                try:
                    return path.read_text()
                except Exception:
                    raise
                except ValueError:
                    return None
            """,
        )
        assert result.clean

    def test_only_the_store_is_in_scope(self):
        result = run_rule(
            "exception-discipline",
            "repro/experiments/backends.py",
            """
            def load(path):
                try:
                    return path.read_text()
                except Exception:
                    return None
            """,
        )
        assert result.clean


# ----------------------------------------------------------------------
# kernel-conformance
# ----------------------------------------------------------------------

_KERNEL_BASE = (
    "repro/buffers/base.py",
    """
    class LockstepKernel:
        def fast_forward(self, plan):
            raise NotImplementedError

        def fast_forward_on(self, plan):
            raise NotImplementedError
    """,
)


class TestKernelConformance:
    def test_flags_registered_kernel_missing_entry_points(self):
        result = run_rule(
            "kernel-conformance",
            "repro/sim/batch.py",
            """
            class GoodKernel(LockstepKernel):
                @classmethod
                def build(cls):
                    return cls()


            class BadKernel:
                @classmethod
                def build(cls):
                    return cls()


            KERNEL_BUILDERS = (GoodKernel.build, BadKernel.build)
            """,
            extra_files=[_KERNEL_BASE],
        )
        assert rules_of(result) == ["kernel-conformance"]
        assert "BadKernel" in result.findings[0].message
        assert "fast_forward" in result.findings[0].message

    def test_inherited_entry_points_pass(self):
        result = run_rule(
            "kernel-conformance",
            "repro/sim/batch.py",
            """
            class OwnKernel:
                def fast_forward(self, plan):
                    return plan

                def fast_forward_on(self, plan):
                    return plan

                @classmethod
                def build(cls):
                    return cls()


            class InheritingKernel(LockstepKernel):
                @classmethod
                def build(cls):
                    return cls()


            KERNEL_BUILDERS = (OwnKernel.build, InheritingKernel.build)
            """,
            extra_files=[_KERNEL_BASE],
        )
        assert result.clean


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------


class TestPragmas:
    def test_trailing_pragma_suppresses_its_own_line(self):
        result = run_rule(
            "sqrt-parity",
            "repro/buffers/thing.py",
            "y = x ** 0.5  # repro-lint: disable=sqrt-parity -- fixture exercising the pragma\n",
        )
        assert result.clean
        assert result.suppressed_by_pragma == 1

    def test_own_line_pragma_suppresses_the_next_line(self):
        result = run_rule(
            "ledger-sum",
            "repro/buffers/thing.py",
            """
            # repro-lint: disable=ledger-sum -- fixture: integer count, not a ledger
            total = sum(values)
            other = sum(values)
            """,
        )
        assert rules_of(result) == ["ledger-sum"]  # only the unpragma'd line
        assert result.suppressed_by_pragma == 1

    def test_pragma_without_justification_is_itself_a_finding(self):
        result = run_rule(
            "sqrt-parity",
            "repro/buffers/thing.py",
            "y = x ** 0.5  # repro-lint: disable=sqrt-parity\n",
        )
        assert sorted(rules_of(result)) == [PRAGMA_RULE_ID, "sqrt-parity"]

    def test_pragma_for_a_different_rule_does_not_suppress(self):
        result = run_rule(
            "sqrt-parity",
            "repro/buffers/thing.py",
            "y = x ** 0.5  # repro-lint: disable=ledger-sum -- wrong rule named\n",
        )
        assert rules_of(result) == ["sqrt-parity"]


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


class TestBaseline:
    def _findings(self):
        return run_rule(
            "sqrt-parity", "repro/buffers/thing.py", "y = x ** 0.5\n"
        ).findings

    def test_round_trip_suppresses_grandfathered_findings(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "lint-baseline.json"
        Baseline.from_findings(findings, "grandfathered in the fixture").save(path)
        loaded = Baseline.load(path)
        survivors, suppressed, unmatched = loaded.apply(findings)
        assert survivors == []
        assert suppressed == 1
        assert unmatched == []

    def test_stale_entries_are_reported(self):
        baseline = Baseline(
            [BaselineEntry("sqrt-parity", "repro/gone.py", "y = x ** 0.5", "was fixed")]
        )
        survivors, suppressed, unmatched = baseline.apply([])
        assert survivors == [] and suppressed == 0
        assert [entry.path for entry in unmatched] == ["repro/gone.py"]

    def test_matching_is_consume_once(self):
        findings = self._findings() * 2  # two identical violations, one entry
        baseline = Baseline.from_findings(findings[:1], "covers exactly one copy")
        survivors, suppressed, _ = baseline.apply(findings)
        assert suppressed == 1
        assert len(survivors) == 1

    def test_entries_must_carry_justification(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {"rule": "sqrt-parity", "path": "a.py", "line_text": "x"}
                    ],
                }
            )
        )
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


class TestReports:
    def test_text_report_carries_location_and_summary(self):
        result = run_rule("sqrt-parity", "repro/buffers/thing.py", "y = x ** 0.5\n")
        text = render_text(result, ALL_RULES)
        assert "repro/buffers/thing.py:1:5: sqrt-parity:" in text
        assert "1 finding(s) in 1 file(s)" in text

    def test_json_report_is_machine_readable(self):
        result = run_rule("sqrt-parity", "repro/buffers/thing.py", "y = x ** 0.5\n")
        payload = json.loads(render_json(result, ALL_RULES))
        assert payload["clean"] is False
        assert payload["counts_by_rule"] == {"sqrt-parity": 1}
        assert payload["findings"][0]["line_text"] == "y = x ** 0.5"
        assert set(payload["rules"]) == {rule.id for rule in ALL_RULES}


# ----------------------------------------------------------------------
# CLI and self-hosting
# ----------------------------------------------------------------------


def _bad_package_file(tmp_path):
    """A ``repro/module.py`` violation: rule scopes match package-relative
    posix paths, so CLI fixtures need a real package directory."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    bad = package / "module.py"
    bad.write_text("y = x ** 0.5\n")
    return bad


class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--help"])
        assert excinfo.value.code == 0
        assert "repro-lint: disable=RULE" in capsys.readouterr().out

    def test_lint_subcommand_reachable_from_main_cli(self, capsys):
        from repro.experiments.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        assert "sqrt-parity" in capsys.readouterr().out

    def test_findings_exit_nonzero_and_write_json_report(self, tmp_path, capsys):
        bad = _bad_package_file(tmp_path)
        report = tmp_path / "report.json"
        code = lint_main([str(bad), "--json-report", str(report), "--no-baseline"])
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["counts_by_rule"] == {"sqrt-parity": 1}

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = _bad_package_file(tmp_path)
        baseline = tmp_path / "lint-baseline.json"
        assert (
            lint_main(
                [
                    str(bad),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    "fixture grandfathering",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert lint_main([str(bad), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_stale_baseline_fails_the_run(self, tmp_path, capsys):
        clean = tmp_path / "module.py"
        clean.write_text("import math\ny = math.sqrt(x)\n")
        baseline = tmp_path / "lint-baseline.json"
        Baseline(
            [BaselineEntry("sqrt-parity", "module.py", "y = x ** 0.5", "since fixed")]
        ).save(baseline)
        assert lint_main([str(clean), "--baseline", str(baseline)]) == 1
        assert "stale entry" in capsys.readouterr().out


class TestSelfHosting:
    def test_tree_passes_its_own_linter(self, capsys):
        """The blocking CI contract: the installed package lints clean
        against the committed baseline (justified pragmas included)."""
        assert lint_main([]) == 0
        assert "clean:" in capsys.readouterr().out
