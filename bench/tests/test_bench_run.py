"""The runner times a process and scales it by the calibration loop around it."""
import sys

from run import spawn


def test_spawn_reports_the_process_and_its_speed_scale():
    p = spawn([sys.executable, "-c", "print('{\"a\": 1}')"], env=None)
    assert p.code == 0 and p.out == {"a": 1}
    assert p.wall > 0 and p.scale > 0
    assert p.wall_ref == p.wall * p.scale and p.cpu_ref == p.cpu * p.scale


def test_spawn_feeds_stdin_and_keeps_a_failing_exit_code():
    code = "import sys; print(sys.stdin.read()); sys.exit(3)"
    p = spawn([sys.executable, "-c", code], env=None, stdin_text="[1, 2]")
    assert p.code == 3 and p.out == [1, 2]
