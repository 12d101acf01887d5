"""Additional CLI coverage: run command variants and error paths."""

import pytest

from repro.cli import main


class TestRunVariants:
    def test_run_dynamic_app(self, capsys):
        assert main(["run", "RAJ", "CC", "--iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "DG1" in out and "best:" in out

    def test_run_default_configs(self, capsys):
        assert main(["run", "DCT", "MIS", "--iters", "1"]) == 0
        out = capsys.readouterr().out
        for code in ("TG0", "SG1", "SGR", "SD1", "SDR"):
            assert code in out

    def test_run_bad_config_code(self):
        with pytest.raises(ValueError):
            main(["run", "DCT", "MIS", "--configs", "XYZ"])

    def test_predict_mtx_input(self, tmp_path, small_random, capsys):
        from repro.graph import save_mtx

        path = tmp_path / "mine.mtx"
        save_mtx(small_random, path)
        assert main(["predict", str(path), "SSSP"]) == 0
        assert "recommended configuration" in capsys.readouterr().out


class TestFaultFlags:
    def test_run_with_retries_and_timeout(self, capsys):
        assert main(["run", "DCT", "MIS", "--iters", "1",
                     "--retries", "2", "--timeout", "600"]) == 0
        out = capsys.readouterr()
        assert "best:" in out.out
        assert "failed:" not in out.err

    def test_run_accepts_fail_fast(self, capsys):
        assert main(["run", "DCT", "MIS", "--iters", "1",
                     "--fail-fast"]) == 0
        assert "best:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["run", "DCT", "PR", "--retries", "0"], "--retries"),
        (["run", "DCT", "PR", "--timeout", "-1"], "--timeout"),
        (["run", "DCT", "PR", "--timeout", "nan"], "--timeout"),
        (["sweep", "--lease-ttl", "0"], "--lease-ttl"),
        (["sweep", "--prune-k", "0"], "--prune-k"),
        (["sweep", "--prune-k", "2", "--explore", "-1"], "--explore"),
        (["worker", "Q", "--retries", "0"], "--retries"),
        (["worker", "Q", "--lease-ttl", "-5"], "--lease-ttl"),
        (["serve", "--timeout", "0"], "--timeout"),
        (["sweep", "--backend", "process", "--jobs", "0"], "--jobs"),
        (["serve", "--jobs", "0", "--uds", "serve.sock"], "--jobs"),
        (["run", "DCT", "PR", "--iters", "0"], "--iters"),
        (["sweep", "--iters", "-1"], "--iters"),
        (["submit", "DCT", "PR", "--server", "unix:///s.sock",
          "--iters", "0"], "--iters"),
        (["serve", "--port", "70000"], "--port"),
        (["worker", "Q", "--poll", "0"], "--poll"),
    ])
    def test_out_of_range_numbers_are_usage_errors(self, argv, flag,
                                                   capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err

    def test_serve_without_a_listener_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "serve needs --port and/or --uds" in err
        assert "Traceback" not in err

    def test_keep_going_and_fail_fast_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "DCT", "MIS", "--keep-going", "--fail-fast"])
        assert "not allowed with" in capsys.readouterr().err

    def test_run_reports_failure_and_exits_nonzero(self, capsys,
                                                   monkeypatch):
        from repro.runtime import FaultInjector, FaultRule, RetryPolicy
        from repro.runtime import backend as backend_module

        real = backend_module.make_backend

        def faulty(name="auto", jobs=1, policy=None, injector=None):
            return real(
                name, jobs,
                policy=RetryPolicy(max_attempts=2),
                injector=FaultInjector(rules=(FaultRule(
                    kind="transient", match="*", attempts=10**6),)),
            )

        monkeypatch.setattr(backend_module, "make_backend", faulty)
        assert main(["run", "DCT", "MIS", "--iters", "1",
                     "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "failed: DCT/MIS" in err
        assert "InjectedTransientError" in err

    def test_run_fail_fast_raises_cleanly(self, capsys, monkeypatch):
        from repro.runtime import FaultInjector, FaultRule, RetryPolicy
        from repro.runtime import backend as backend_module

        real = backend_module.make_backend

        def faulty(name="auto", jobs=1, policy=None, injector=None):
            return real(
                name, jobs,
                policy=RetryPolicy(max_attempts=2),
                injector=FaultInjector(rules=(FaultRule(
                    kind="transient", match="*", attempts=10**6),)),
            )

        monkeypatch.setattr(backend_module, "make_backend", faulty)
        assert main(["run", "DCT", "MIS", "--iters", "1", "--no-cache",
                     "--fail-fast"]) == 1
        err = capsys.readouterr().err
        assert "error: DCT/MIS failed after 2 attempt(s)" in err
