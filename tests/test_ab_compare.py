"""Smoke tests of scripts/ab_compare.py on tiny worlds. They check only
what the script reports about the two sides' outputs, never a timing."""

import importlib.util
import os
import re
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab_compare", os.path.join(ROOT, "scripts", "ab_compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.DEVICES = 6  # a tiny fleet world
    yield module
    # main() imports each tree under these names; drop them so that the
    # next test imports its trees afresh.
    for name in [n for n in sys.modules if n.split(".")[0] in ("quicmq_old", "quicmq_new")]:
        del sys.modules[name]


def run(ab, capsys, old, new, world):
    code = ab.main([old, new, "--world", world, "--reps", "2"])
    out = capsys.readouterr().out
    sides = dict(re.findall(r"^(old|new): (deliveries \d+, datagrams \d+)", out,
                            re.MULTILINE))
    return code, out, sides


def patched_tree(tmp_path, module, old, new):
    """A copy of the source tree with ``old`` replaced by ``new`` in
    ``module``."""
    pkg = tmp_path / "quicmq"
    shutil.copytree(os.path.join(SRC, "quicmq"), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (pkg / module).read_text()
    assert old in source
    (pkg / module).write_text(source.replace(old, new))
    return str(tmp_path)


@pytest.mark.parametrize("world", ["stream", "fleet"])
def test_same_tree_on_both_sides_gives_equal_outputs(ab, capsys, world):
    code, out, sides = run(ab, capsys, SRC, SRC, world)
    assert code == 0, out
    assert sides["old"] == sides["new"]
    assert "cpu ratio new/old:" in out
    assert out.strip().endswith("outputs equal")


def test_a_tree_that_sends_other_datagrams_exits_1(ab, capsys, tmp_path):
    # Acking every packet at once changes the datagram count, not the
    # deliveries.
    tree = patched_tree(tmp_path, "connection.py", "QUICK_ACKS = 16", "QUICK_ACKS = 10**9")
    code, out, sides = run(ab, capsys, SRC, tree, "stream")
    assert code == 1, out
    assert sides["old"] != sides["new"]
    assert "MISMATCH" in out


def test_a_tree_that_sends_other_bytes_exits_1(ab, capsys, tmp_path):
    # Another version tag in the first hello changes bytes only: the
    # deliveries, the datagram counts and every size stay the same.
    tree = patched_tree(tmp_path, "wire.py", 'VERSION = b"Q001"', 'VERSION = b"Q002"')
    code, out, sides = run(ab, capsys, SRC, tree, "stream")
    assert code == 1, out
    assert sides["old"] == sides["new"]
    assert "MISMATCH" in out
