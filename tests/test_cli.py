"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_multiply_defaults(self):
        args = build_parser().parse_args(["multiply"])
        assert args.n == 1024
        assert args.fidelity == "fast"

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.profile == "polymul-1024"
        assert args.rate is None
        assert args.batch_capacity is None


class TestCommands:
    @pytest.mark.parametrize("command,marker", [
        ("table1", "Table I"),
        ("table2", "cryptopim"),
        ("fig4", "Figure 4"),
        ("fig5", "Figure 5"),
        ("fig6", "BP-1"),
        ("claims", "fpga_throughput_gain"),
        ("variation", "MC samples"),
    ])
    def test_render_commands(self, command, marker, capsys):
        assert main([command]) == 0
        assert marker in capsys.readouterr().out

    def test_multiply_fast(self, capsys):
        assert main(["multiply", "--n", "256", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "n=256" in out
        assert "checksum" in out

    def test_multiply_bit_fidelity(self, capsys):
        assert main(["multiply", "--n", "64", "--fidelity", "bit"]) == 0
        assert "n=64" in capsys.readouterr().out

    def test_multiply_deterministic(self, capsys):
        main(["multiply", "--n", "256", "--seed", "7"])
        first = capsys.readouterr().out
        main(["multiply", "--n", "256", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_microcode(self, capsys):
        assert main(["microcode", "--n", "64", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "xfer" in out
        assert "total:" in out

    def test_microcode_full_listing(self, capsys):
        assert main(["microcode", "--n", "16", "--limit", "0"]) == 0
        assert "more micro-ops" not in capsys.readouterr().out


class TestExtendedCommands:
    def test_regress(self, capsys):
        assert main(["regress"]) == 0
        out = capsys.readouterr().out
        assert "stage_cycles_16bit" in out
        assert "DRIFT" not in out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "cryptopim/felix/P" in out
        assert "*" in out

    def test_security(self, capsys):
        assert main(["security"]) == 0
        assert "delta" in capsys.readouterr().out

    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "reproduction summary" in out
        assert "Claims scoreboard" in out

    def test_serve_bench_closed_loop(self, capsys):
        assert main(["serve-bench", "--profile", "polymul-256",
                     "--requests", "24", "--concurrency", "8"]) == 0
        out = capsys.readouterr().out
        assert "polymul-256" in out
        assert "serving metrics" in out
        assert "fleet: 1/1 chips" in out

    def test_serve_bench_open_loop(self, capsys):
        assert main(["serve-bench", "--profile", "polymul-256",
                     "--requests", "16", "--rate", "4000"]) == 0
        assert "[open  ]" in capsys.readouterr().out

    def test_serve_bench_unknown_profile(self, capsys):
        assert main(["serve-bench", "--profile", "nope"]) == 2
        assert "unknown profile" in capsys.readouterr().out
