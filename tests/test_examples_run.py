"""Every example script must run end-to-end at reduced scale."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestExamples:
    def test_offline_comparison(self):
        result = run_example(
            "offline_comparison.py",
            "--requests", "10",
            "--test-requests", "1",
        )
        assert result.returncode == 0, result.stderr
        assert "fMoE relative to each baseline" in result.stdout

    def test_online_azure_replay(self):
        result = run_example(
            "online_azure_replay.py", "--requests", "4"
        )
        assert result.returncode == 0, result.stderr
        assert "p50" in result.stdout

    def test_custom_policy(self):
        result = run_example("custom_policy.py")
        assert result.returncode == 0, result.stderr
        assert "sticky-topk" in result.stdout
        assert "oracle" in result.stdout

    def test_miss_analysis(self):
        result = run_example(
            "miss_analysis.py", "--requests", "10", "--budget-gb", "10"
        )
        assert result.returncode == 0, result.stderr
        assert "miss causes" in result.stdout

    def test_capacity_planning(self):
        result = run_example("capacity_planning.py", "--requests", "10")
        assert result.returncode == 0, result.stderr
        assert "fleet ceiling" in result.stdout

    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "expert hit rate" in result.stdout

    def test_chaos_replay(self):
        result = run_example("chaos_replay.py", "--requests", "10")
        assert result.returncode == 0, result.stderr
        assert "degraded_tokens" in result.stdout
        assert "replay identical: True" in result.stdout

    def test_cluster_demo(self):
        result = run_example(
            "cluster_demo.py", "--requests", "8", "--replicas", "2"
        )
        assert result.returncode == 0, result.stderr
        assert "semantic-affinity" in result.stdout
        assert "affinity routing hit-rate delta" in result.stdout

    def test_resilience_demo(self):
        result = run_example(
            "resilience_demo.py",
            "--requests", "10",
            "--replicas", "2",
            "--crash-time", "4",
        )
        assert result.returncode == 0, result.stderr
        assert "resilience off" in result.stdout
        assert "resilience on" in result.stdout
        assert "restart: replica" in result.stdout
        assert "re-warmed" in result.stdout

    def test_trace_a_run(self, tmp_path):
        result = run_example(
            "trace_a_run.py",
            "--requests", "8",
            "--test-requests", "1",
            "--out-dir", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert "stall attribution" in result.stdout
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.prom").exists()
