"""Golden outputs: the demos, ``reproduce`` and ``gen`` + ``verify`` reports,
compared byte for byte with the files under ``tests/golden/``.

A change that alters any serialized report or demo line fails here.  When
a change is meant to alter them (a version bump, a new report field),
re-record with ``python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import fatpointlab
from fatpointlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
DEMO_NAMES = sorted(p.stem for p in DEMOS.glob("*.py"))
EXAMPLE_IDS = ["2.8", "4.6-sharpness", "5.4-veronese", "5.6-generic"]

# (name, gen arguments): generic and collinear-cluster schemes over Q and
# F_10007; each is verified with the default checks, ctv included
GEN_CASES = [
    ("generic-q-s6-m2", ["--kind", "generic", "--n", "2", "--s", "6", "--mult", "2",
                         "--seed", "0"]),
    ("generic-p-s5-m3", ["--kind", "generic", "--n", "2", "--s", "5", "--mult", "3",
                         "--seed", "1", "--field", "prime:10007"]),
    ("generic-q-p3-s4-m2", ["--kind", "generic", "--n", "3", "--s", "4", "--mult", "2",
                            "--seed", "2"]),
    ("cluster-q-s4-e2-m2", ["--kind", "collinear-cluster", "--n", "2", "--s", "4",
                            "--extra", "2", "--mult", "2", "--seed", "3"]),
    ("cluster-p-s3-e1-m3", ["--kind", "collinear-cluster", "--n", "2", "--s", "3",
                            "--extra", "1", "--mult", "3", "--seed", "4",
                            "--field", "prime:10007"]),
    ("cluster-q-p3-s3-e1-m2", ["--kind", "collinear-cluster", "--n", "3", "--s", "3",
                               "--extra", "1", "--mult", "2", "--seed", "5"]),
]


def demo_output(name):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fatpointlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / (name + ".py"))], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout


def cli_output(argv):
    """The stdout of ``fatpointlab argv``, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def gen_verify_outputs(gen_args):
    """The generated instance and its default ``verify`` report; run in the
    current directory, so the report names the instance ``instance.json``."""
    cli_output(["gen", *gen_args, "--out", "instance.json"])
    instance = Path("instance.json").read_text()
    return instance, cli_output(["verify", "instance.json"])


def golden(name):
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo(name):
    assert demo_output(name) == golden("demo-%s.txt" % name)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_reproduce(example_id):
    assert cli_output(["reproduce", example_id]) == golden("reproduce-%s.json" % example_id)


@pytest.mark.parametrize("name,gen_args", GEN_CASES, ids=[c[0] for c in GEN_CASES])
def test_gen_verify(name, gen_args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    instance, report = gen_verify_outputs(gen_args)
    assert instance == golden("gen-%s.json" % name)
    assert report == golden("verify-%s.json" % name)


def record():
    GOLDEN.mkdir(exist_ok=True)
    outputs = {"demo-%s.txt" % name: demo_output(name) for name in DEMO_NAMES}
    for example_id in EXAMPLE_IDS:
        outputs["reproduce-%s.json" % example_id] = cli_output(["reproduce", example_id])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, gen_args in GEN_CASES:
                instance, report = gen_verify_outputs(gen_args)
                outputs["gen-%s.json" % name] = instance
                outputs["verify-%s.json" % name] = report
        finally:
            os.chdir(cwd)
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text)


if __name__ == "__main__":
    record()
