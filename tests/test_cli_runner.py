"""Tests for the CLI (repro.cli) and the experiment runner
(repro.experiments.runner)."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import EXPERIMENT_NAMES, RunnerConfig, run_all, run_experiment
from repro.experiments.workloads import clear_workload_cache


@pytest.fixture(autouse=True, scope="module")
def _small_cached_workloads():
    """Experiments in this module run at the fast preset; clear the cache
    afterwards so other test modules rebuild their own workloads."""
    clear_workload_cache()
    yield
    clear_workload_cache()


def _tiny_config():
    return RunnerConfig(
        time_steps=25, num_images=6, samples_per_class=8, table2_datasets=("mnist",), seed=0
    )


class TestRunnerConfig:
    def test_fast_preset_smaller_than_default(self):
        fast = RunnerConfig.fast()
        default = RunnerConfig()
        assert fast.time_steps < default.time_steps
        assert fast.num_images < default.num_images


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig9")

    def test_fig1_runs_without_workload(self):
        text = run_experiment("fig1", _tiny_config())
        assert "Fig. 1" in text

    @pytest.mark.parametrize("name", ["fig2", "fig5", "table2"])
    def test_mnist_experiments(self, name):
        text = run_experiment(name, _tiny_config())
        assert name.replace("fig", "Fig. ").replace("table", "Table ") in text

    def test_table1_runs(self):
        text = run_experiment("table1", _tiny_config())
        assert "Table 1" in text
        assert "phase" in text


class TestRunAll:
    def test_selected_experiments_share_sweep(self):
        seen = []
        outputs = run_all(
            _tiny_config(),
            experiments=("fig1", "table1", "fig4"),
            on_result=lambda name, text: seen.append(name),
        )
        assert set(outputs) == {"fig1", "table1", "fig4"}
        assert seen == ["fig1", "table1", "fig4"]
        assert "Fig. 4" in outputs["fig4"]

    def test_experiment_names_constant_covers_all(self):
        assert set(EXPERIMENT_NAMES) == {
            "fig1", "fig2", "table1", "fig3", "fig4", "table2", "fig5"
        }


class TestCliParser:
    def test_experiment_subcommand_parses(self):
        args = build_parser().parse_args(["experiment", "fig1", "--fast"])
        assert args.command == "experiment"
        assert args.name == "fig1"
        assert args.fast

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert "phase-burst" in args.schemes

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out

    def test_serve_subcommand_parses(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch-size", "4", "--max-wait-ms", "2.5",
             "--scheme", "phase-burst", "real-rate"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.max_batch_size == 4
        assert args.max_wait_ms == 2.5
        assert args.schemes == ["phase-burst", "real-rate"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.schemes == ["phase-burst"]
        assert args.max_queue == 64


class TestCliMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "phase-burst" in out
        assert "experiments" in out

    def test_experiment_fig1_to_file(self, tmp_path, capsys):
        output = tmp_path / "fig1.txt"
        code = main(["experiment", "fig1", "--fast", "--output", str(output)])
        assert code == 0
        assert output.exists()
        assert "Fig. 1" in output.read_text()
        assert "Fig. 1" in capsys.readouterr().out

    def test_compare_command_small(self, capsys):
        code = main(
            [
                "compare",
                "--schemes", "real-burst", "real-rate",
                "--dataset", "mnist",
                "--model", "mlp",
                "--time-steps", "20",
                "--images", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "real-burst" in out and "real-rate" in out

    def test_list_schemes_flag(self, capsys):
        assert main(["--list-schemes"]) == 0
        out = capsys.readouterr().out
        # the registry listing includes the built-ins and the TTFS extension
        for name in ("real", "rate", "phase", "burst", "ttfs"):
            assert name in out
        assert "phase-burst" in out

    def test_compare_unknown_scheme_fails_helpfully(self, capsys):
        # exits with a did-you-mean error before building any workload
        assert main(["compare", "--schemes", "phse-burst"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'phase'" in err
        assert "--list-schemes" in err

    def test_compare_registry_product_schemes(self, capsys):
        """`--schemes all-input:burst` resolves through the registry instead
        of any hard-coded notation tuple (covers the TTFS extension too)."""
        code = main(
            [
                "compare",
                "--schemes", "all-input:burst",
                "--dataset", "mnist",
                "--model", "mlp",
                "--time-steps", "10",
                "--images", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        from repro.core.registry import input_codings

        for coding in input_codings():
            assert f"{coding}-burst" in out

    def test_compare_product_spec_typo_fails_helpfully(self, capsys):
        assert main(["compare", "--schemes", "phse:burst"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'phase'" in err

    def test_compare_product_invalid_side_fails_helpfully(self, capsys):
        # 'real' has no hidden-layer dynamics: not a valid rhs for a product
        assert main(["compare", "--schemes", "all:real"]) == 2
        err = capsys.readouterr().err
        assert "not valid for the hidden side" in err

    def test_compare_registry_extension_scheme(self, capsys):
        """TTFS reaches the CLI purely through the registry."""
        code = main(
            [
                "compare",
                "--schemes", "ttfs-burst",
                "--dataset", "mnist",
                "--model", "mlp",
                "--time-steps", "16",
                "--images", "6",
            ]
        )
        assert code == 0
        assert "ttfs-burst" in capsys.readouterr().out


class TestCliBackends:
    def test_list_backends_flag(self, capsys):
        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy (default)" in out
        assert "torch" in out
        assert "effective backend" in out

    def test_unknown_backend_fails_helpfully(self, capsys):
        assert main(["--backend", "nmpy", "info"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'numpy'" in err
        assert "--list-backends" in err

    def test_backend_flag_sets_process_default(self, capsys, alt_backend):
        from repro.backends import default_backend_name, set_default_backend

        try:
            assert main(["--backend", alt_backend, "info"]) == 0
            assert default_backend_name() == alt_backend
        finally:
            set_default_backend(None)

    def test_compare_on_selected_backend(self, capsys, alt_backend):
        from repro.backends import set_default_backend

        try:
            code = main(
                [
                    "--backend", alt_backend,
                    "compare",
                    "--schemes", "real-burst",
                    "--dataset", "mnist",
                    "--model", "mlp",
                    "--time-steps", "15",
                    "--images", "4",
                ]
            )
        finally:
            set_default_backend(None)
        assert code == 0
        assert "real-burst" in capsys.readouterr().out

    def test_early_exit_margin_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["compare", "--early-exit-patience", "10", "--early-exit-margin", "0.05"]
        )
        assert args.early_exit_patience == 10
        assert args.early_exit_margin == pytest.approx(0.05)
