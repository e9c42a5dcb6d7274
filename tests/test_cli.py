"""Unit tests for the command-line interface."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRefine:
    def test_refine_all(self, capsys):
        code = main(["refine", "-n", "500", "-k", "5", "--rank", "21",
                     "--sample-size", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MQP" in out and "MWK" in out and "MQWK" in out
        assert "penalty" in out

    def test_refine_single_algorithm(self, capsys):
        code = main(["refine", "-n", "500", "-k", "5", "--rank", "21",
                     "--algorithm", "mqp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MQP" in out and "MQWK" not in out

    def test_refine_with_explanation(self, capsys):
        code = main(["refine", "-n", "500", "-k", "5", "--rank", "21",
                     "--algorithm", "mqp", "--explain"])
        assert code == 0
        assert "q ranks 21" in capsys.readouterr().out

    def test_refine_multiple_whynot(self, capsys):
        code = main(["refine", "-n", "500", "-k", "5", "--rank", "21",
                     "--wm-size", "2", "--algorithm", "mwk",
                     "--sample-size", "30"])
        assert code == 0
        assert "k_max" in capsys.readouterr().out


class TestQuery:
    def test_query_runs(self, capsys):
        code = main(["query", "-n", "500", "-k", "5", "--rank", "21",
                     "--panel", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reverse top-5" in out

    def test_query_dataset_choice_validated(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "nope"])


class TestBench:
    def test_bench_requires_known_figure(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


SUBCOMMANDS = ("query", "refine", "batch", "serve", "explain",
               "watch", "catalogue", "bench", "lint")


class TestHelp:
    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_parses_help(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_help_registry_is_exhaustive(self, capsys):
        # A new subcommand must join SUBCOMMANDS (and so the smoke
        # test): parse the usage line's {a,b,c} set and compare.
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        match = re.search(r"\{([a-z,]+)\}", out)
        assert match, out
        assert set(match.group(1).split(",")) == set(SUBCOMMANDS)


class TestLint:
    def test_lint_subcommand_is_clean_on_this_repo(self, capsys):
        root = str(Path(__file__).resolve().parents[1])
        assert main(["lint", "--root", root]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "SCHEMA-LOCK" in capsys.readouterr().out


class TestServe:
    def test_load_spec_validated(self, capsys):
        assert main(["serve", "--load", "no-equals-sign"]) == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_load_missing_file_is_clean_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.npz"
        assert main(["serve", "--load", f"cat={missing}"]) == 2
        assert "failed to register" in capsys.readouterr().err

    def test_load_corrupt_file_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a zip archive")
        assert main(["serve", "--load", f"cat={bad}"]) == 2
        assert "failed to register" in capsys.readouterr().err

    def test_serve_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve" in capsys.readouterr().out

    def test_serve_help_documents_daemon(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--max-partitions" in out
        assert "ephemeral" in out

    def test_boot_answer_shutdown(self, tmp_path):
        """End-to-end: boot ``wqrtq serve`` on an ephemeral port as a
        real subprocess, answer one question through the client, and
        shut it down — the same sequence the CI smoke step runs."""
        from repro.service import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "-n", "400", "--seed", "2", "--name", "smoke",
             "--max-partitions", "32"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=tmp_path, env=env)
        try:
            port = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                match = re.search(r"serving on http://[^:]+:(\d+)",
                                  line or "")
                if match:
                    port = int(match.group(1))
                    break
                assert proc.poll() is None, proc.stderr.read()
            assert port, "server never announced its port"
            client = ServiceClient(port=port)
            assert client.health() == {"status": "ok"}
            (entry,) = client.catalogues()
            assert entry["name"] == "smoke"
            assert entry["max_partitions"] == 32
            item = client.answer(
                "smoke", [0.2] * 3, 5, [[0.4, 0.3, 0.3]],
                algorithm="mqp")
            assert item["valid"] and item["error"] is None
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_drain_survives_closed_stdout(self, tmp_path):
        """The reader of the daemon's stdout goes away, then SIGTERM:
        the status lines the drain prints must not fail the exit."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "-n", "200", "--seed", "2", "--name", "pipe"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=tmp_path, env=env)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "serving on" in line:
                    break
                assert line, proc.stderr.read()
            else:
                pytest.fail("server never announced its port")
            proc.stdout.close()
            proc.terminate()
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert code == 0, stderr
        assert "BrokenPipeError" not in stderr, stderr


class TestCatalogueCLI:
    """``wqrtq catalogue show/add/update/remove`` against an
    in-process server."""

    @pytest.fixture()
    def served(self):
        import threading

        import numpy as np

        from repro.service import CatalogueRegistry, create_server

        registry = CatalogueRegistry()
        registry.register(
            "shop", np.random.default_rng(5).random((200, 3)))
        server = create_server(registry)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            yield registry, server.port
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_show(self, served, capsys):
        _, port = served
        assert main(["catalogue", "show", "shop",
                     "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "catalogue: shop" in out
        assert "version: 0  n: 200  d: 3" in out
        assert "mutations: adds=0" in out

    def test_add_update_remove_round_trip(self, served, capsys):
        registry, port = served
        assert main(["catalogue", "add", "shop", "--port", str(port),
                     "--products", "[[3.0, 3.0, 3.0]]"]) == 0
        assert "ids [200]" in capsys.readouterr().out
        assert main(["catalogue", "update", "shop",
                     "--port", str(port), "--ids", "200",
                     "--products", "[[4.0, 4.0, 4.0]]"]) == 0
        assert "version 2" in capsys.readouterr().out
        assert main(["catalogue", "remove", "shop",
                     "--port", str(port), "--ids", "200"]) == 0
        out = capsys.readouterr().out
        assert "version 3" in out and "n=200" in out
        assert registry.catalogue("shop").version == 3

    def test_add_from_npz(self, served, capsys, tmp_path):
        import numpy as np

        from repro.data.io import save_dataset

        _, port = served
        path = save_dataset(tmp_path / "extra.npz",
                            np.full((2, 3), 3.0), kind="extra")
        assert main(["catalogue", "add", "shop", "--port", str(port),
                     "--from-npz", str(path)]) == 0
        assert "added 2 product(s)" in capsys.readouterr().out

    def test_unknown_catalogue_fails_cleanly(self, served, capsys):
        _, port = served
        assert main(["catalogue", "show", "nope",
                     "--port", str(port)]) == 1
        assert "unknown catalogue" in capsys.readouterr().err

    def test_bad_products_json_fails_cleanly(self, served, capsys):
        _, port = served
        assert main(["catalogue", "add", "shop", "--port", str(port),
                     "--products", "{not json"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_products_and_npz_exclusive(self, served, capsys):
        _, port = served
        assert main(["catalogue", "add", "shop",
                     "--port", str(port)]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_connection_refused_fails_cleanly(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["catalogue", "show", "shop",
                     "--port", str(port)]) == 1
        assert "failed" in capsys.readouterr().err


class TestPlot:
    def test_plot_2d(self, capsys):
        code = main(["refine", "-n", "300", "-d", "2", "-k", "5",
                     "--rank", "21", "--algorithm", "mqp", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q" in out and "░" in out

    def test_plot_rejected_beyond_2d(self, capsys):
        code = main(["refine", "-n", "300", "-d", "3", "-k", "5",
                     "--rank", "21", "--algorithm", "mqp", "--plot"])
        assert code == 0
        assert "requires 2-dimensional" in capsys.readouterr().out
