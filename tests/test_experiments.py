"""Experiment harness: runner infrastructure, individual artifacts, and the CLI.

The heavier table/figure sweeps are exercised at benchmark time; here the
cheap experiments run end-to-end in quick mode, the grid runner and the
process-pool backend are checked on a reduced subset.  The backend
names and the composed ``pool+batch`` backend have their own module
(``tests/test_backends.py``).
"""

import pickle
import warnings

import pytest

from repro.buffers.morphy import MorphyBuffer
from repro.buffers.static import StaticBuffer
from repro.exceptions import ConfigurationError
from repro.experiments import EXPERIMENTS
from repro.experiments.backends import (
    PoolBatchBackend,
    ProcessPoolBackend,
    RunSpec,
    execute_run_spec,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.runner import (
    BUFFER_ORDER,
    ExperimentRunner,
    ExperimentSettings,
    make_workload,
    standard_buffers,
)
from repro.experiments import switching_loss, table1_configuration, table3_traces
from repro.units import microfarads
from repro.workloads import (
    DataEncryption,
    PacketForwarding,
    RadioTransmit,
    SenseAndCompute,
)


def exploding_buffers():
    """Module-level factory (picklable) whose construction fails.

    Used to verify that an exception raised inside a pool worker propagates
    out of ``run_grid`` instead of hanging or being swallowed.
    """
    raise ConfigurationError("buffer factory exploded in the worker")


def slow_then_fast_buffers():
    """Module-level factory whose first buffer simulates far slower.

    Morphy's controller makes its cell one-plus orders of magnitude more
    expensive than a small static cell, so with two workers the second
    spec reliably completes before the first — the out-of-order-completion
    case ordered collection must hide.
    """
    return [MorphyBuffer(), StaticBuffer(microfarads(770.0), name="770 uF")]


class TestSettings:
    def test_quick_mode_truncates_long_traces(self):
        settings = ExperimentSettings(quick=True)
        trace = settings.trace("Solar Campus")
        assert trace.duration <= settings.quick_trace_cap + 1.0

    def test_full_mode_keeps_table3_duration(self):
        settings = ExperimentSettings(quick=False)
        assert settings.trace("RF Cart").duration == pytest.approx(313.0, abs=1.0)

    def test_effective_timesteps(self):
        assert ExperimentSettings(quick=True).effective_dt_on == pytest.approx(0.02)
        assert ExperimentSettings(quick=False).effective_dt_on == pytest.approx(0.01)

    def test_traces_subset(self):
        settings = ExperimentSettings(quick=True)
        traces = settings.traces(["RF Cart", "RF Mobile"])
        assert list(traces) == ["RF Cart", "RF Mobile"]

    def test_backend_name_resolution(self):
        """Only ``backend`` selects execution; ``workers`` is the pool width."""
        assert ExperimentSettings().backend_name == "serial"
        assert ExperimentSettings(workers=4).backend_name == "serial"
        assert ExperimentSettings(backend="pool", workers=4).backend_name == "pool"
        assert ExperimentSettings(backend="serial", workers=4).backend_name == "serial"


class TestRunnerInfrastructure:
    def test_standard_buffers_match_paper_order(self):
        names = [buffer.name for buffer in standard_buffers()]
        assert names == list(BUFFER_ORDER)

    def test_make_workload_types(self):
        assert isinstance(make_workload("DE", "RF Cart"), DataEncryption)
        assert isinstance(make_workload("SC", "RF Cart"), SenseAndCompute)
        assert isinstance(make_workload("RT", "RF Cart"), RadioTransmit)
        pf = make_workload("PF", "Solar Commute")
        assert isinstance(pf, PacketForwarding)
        assert pf.mean_interarrival == pytest.approx(60.0)
        with pytest.raises(KeyError):
            make_workload("XX", "RF Cart")

    def test_run_grid_subset(self):
        settings = ExperimentSettings(quick=True)
        runner = ExperimentRunner(settings)
        seen = []
        results = runner.run_grid(
            workloads=("SC",),
            trace_names=("RF Cart",),
            progress=lambda r: seen.append(r.buffer_name),
        )
        assert len(results) == len(BUFFER_ORDER)
        assert seen == [r.buffer_name for r in results]
        assert {r.trace_name for r in results} == {"RF Cart"}

    def test_grid_specs_match_serial_iteration_order(self):
        settings = ExperimentSettings(quick=True)
        runner = ExperimentRunner(settings)
        specs = runner.grid_specs(workloads=("SC", "DE"), trace_names=("RF Cart",))
        assert len(specs) == 2 * len(BUFFER_ORDER)
        assert [s.workload for s in specs[: len(BUFFER_ORDER)]] == ["SC"] * len(
            BUFFER_ORDER
        )
        assert [s.buffer_index for s in specs[: len(BUFFER_ORDER)]] == list(
            range(len(BUFFER_ORDER))
        )

    def test_run_specs_are_picklable(self):
        settings = ExperimentSettings(quick=True)
        specs = ExperimentRunner(settings).grid_specs(
            workloads=("DE",), trace_names=("RF Cart",)
        )
        for spec in specs:
            restored = pickle.loads(pickle.dumps(spec))
            assert restored == spec

    def test_execute_run_spec_matches_serial_runner(self):
        settings = ExperimentSettings(quick=True)
        spec = RunSpec(
            workload="DE", trace_name="RF Cart", buffer_index=0, settings=settings
        )
        from_spec = execute_run_spec(spec)
        serial = ExperimentRunner(settings)
        direct = serial.run_single(
            settings.trace("RF Cart"),
            standard_buffers()[0],
            make_workload("DE", "RF Cart"),
        )
        assert from_spec.work_units == direct.work_units
        assert from_spec.enable_count == direct.enable_count
        assert from_spec.latency == direct.latency


class TestProcessPoolBackend:
    def test_pool_grid_equals_serial_grid(self):
        settings = ExperimentSettings(quick=True)
        serial = ExperimentRunner(settings).run_grid(
            workloads=("DE",), trace_names=("RF Cart", "RF Obstruction")
        )
        seen = []
        pooled = ExperimentRunner(
            settings, backend=ProcessPoolBackend(workers=2)
        ).run_grid(
            workloads=("DE",),
            trace_names=("RF Cart", "RF Obstruction"),
            progress=lambda r: seen.append(r.buffer_name),
        )
        assert [r.buffer_name for r in pooled] == [r.buffer_name for r in serial]
        assert seen == [r.buffer_name for r in pooled]
        for serial_result, pooled_result in zip(serial, pooled):
            assert pooled_result.work_units == serial_result.work_units
            assert pooled_result.enable_count == serial_result.enable_count
            assert pooled_result.brownout_count == serial_result.brownout_count
            assert pooled_result.latency == serial_result.latency
            assert pooled_result.energy_delivered_to_load == pytest.approx(
                serial_result.energy_delivered_to_load, rel=1e-12
            )

    def test_workers_one_degrades_to_serial_path(self):
        settings = ExperimentSettings(quick=True)
        runner = ExperimentRunner(settings, backend=ProcessPoolBackend(workers=1))
        results = runner.run_grid(workloads=("SC",), trace_names=("RF Cart",))
        assert len(results) == len(BUFFER_ORDER)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ConfigurationError):
            PoolBatchBackend(workers=0)

    def test_workers_one_uses_no_pool(self, monkeypatch):
        """The degenerate workers=1 pool must never be constructed."""
        import repro.experiments.backends as backends_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("workers=1 must not build a process pool")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", forbidden)
        runner = ExperimentRunner(
            ExperimentSettings(quick=True), backend=ProcessPoolBackend(workers=1)
        )
        results = runner.run_grid(workloads=("DE",), trace_names=("RF Cart",))
        assert len(results) == len(BUFFER_ORDER)

    def test_single_cell_grid_skips_pool_even_with_workers(self, monkeypatch):
        import repro.experiments.backends as backends_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("single-cell grids must run serial")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", forbidden)
        runner = ExperimentRunner(
            ExperimentSettings(quick=True),
            buffer_factory=lambda: [StaticBuffer(microfarads(770.0), name="770 uF")],
            backend=ProcessPoolBackend(workers=4),
        )
        results = runner.run_grid(workloads=("DE",), trace_names=("RF Cart",))
        assert [r.buffer_name for r in results] == ["770 uF"]

    def test_child_exception_propagates(self):
        """A run spec that raises in the worker surfaces in the parent."""
        specs = [
            RunSpec(
                workload="DE",
                trace_name=trace_name,
                buffer_index=0,
                settings=ExperimentSettings(quick=True),
                buffer_factory=exploding_buffers,
            )
            for trace_name in ("RF Cart", "RF Obstruction")
        ]
        with pytest.raises(ConfigurationError, match="exploded in the worker"):
            ProcessPoolBackend(workers=2).run_specs(specs)
        # And end-to-end through run_grid (the factory raises in the parent
        # during spec construction or in the child — either way it must not
        # hang and must surface the original exception type).
        runner = ExperimentRunner(
            ExperimentSettings(quick=True),
            buffer_factory=exploding_buffers,
            backend=ProcessPoolBackend(workers=2),
        )
        with pytest.raises(ConfigurationError, match="exploded"):
            runner.run_grid(workloads=("DE",), trace_names=("RF Cart",))

    def test_ordered_collection_under_out_of_order_completion(self):
        """A slow first cell must not displace results from serial order."""
        settings = ExperimentSettings(quick=True)
        serial = ExperimentRunner(
            settings, buffer_factory=slow_then_fast_buffers
        ).run_grid(workloads=("DE",), trace_names=("RF Cart",))
        seen = []
        pooled = ExperimentRunner(
            settings,
            buffer_factory=slow_then_fast_buffers,
            backend=ProcessPoolBackend(workers=2),
        ).run_grid(
            workloads=("DE",),
            trace_names=("RF Cart",),
            progress=lambda r: seen.append(r.buffer_name),
        )
        # Morphy (slow) first, static (fast) second — completion order is
        # reversed, collection order must not be.
        assert [r.buffer_name for r in pooled] == ["Morphy", "770 uF"]
        assert seen == ["Morphy", "770 uF"]
        for serial_result, pooled_result in zip(serial, pooled):
            assert pooled_result.work_units == serial_result.work_units
            assert pooled_result.latency == serial_result.latency


class TestCheapExperiments:
    def test_registry_is_complete(self):
        expected = {
            "fig1", "sec2", "switching-loss", "table1", "table2", "table3",
            "table4", "table5", "fig6", "fig7", "overhead",
        }
        assert set(EXPERIMENTS) == expected

    def test_table1_experiment(self):
        output = table1_configuration.run(verbose=False)
        assert output["config"].maximum_capacitance == pytest.approx(18.03e-3, rel=1e-3)
        assert all(row["satisfies_eq2"] for row in output["sizing_rows"])

    def test_table3_experiment(self):
        output = table3_traces.run(ExperimentSettings(quick=True), verbose=False)
        assert len(output["rows"]) == 5
        for row in output["rows"]:
            assert row["avg_power_mW"] == pytest.approx(
                row["paper_avg_power_mW"], rel=1e-3
            )

    def test_switching_loss_experiment_matches_paper(self):
        output = switching_loss.run(verbose=False)
        by_size = {row["array_size"]: row for row in output["loss_rows"]}
        assert by_size[4]["model_loss_fraction"] == pytest.approx(0.25, abs=1e-3)
        assert by_size[8]["model_loss_fraction"] == pytest.approx(0.5625, abs=1e-3)
        for row in output["reclamation_rows"]:
            assert row["gain_factor"] == pytest.approx(
                row["expected_gain_N^2"], rel=1e-6
            )


class TestCli:
    def test_parser_accepts_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--quick"])
        assert args.experiment == "table1"
        assert args.quick
        assert args.workers is None
        assert args.backend is None

    def test_parser_accepts_workers_flag(self):
        args = build_parser().parse_args(["table2", "--quick", "--workers", "4"])
        assert args.workers == 4

    def test_parser_accepts_backend_flag(self):
        args = build_parser().parse_args(["table2", "--backend", "pool+batch"])
        assert args.backend == "pool+batch"

    def test_parser_rejects_unknown_backend_listing_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--backend", "quantum"])
        captured = capsys.readouterr()
        assert "pool+batch" in captured.err and "serial" in captured.err

    def test_legacy_flags_are_gone(self):
        """`--batch` is rejected; a bare `--workers` runs without a warning."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--batch"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["list", "--workers", "2"]) == 0

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out

    def test_run_single_cheap_experiment(self, capsys):
        assert main(["table1", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
