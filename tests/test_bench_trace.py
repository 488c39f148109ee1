"""The traced benchmark wraps package functions by name; the names it looks
up must exist, and removing the wrappers must restore every original."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_recorder_installs_and_restores(monkeypatch):
    import graphspde.config  # noqa: F401  (the worker imports it first)

    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    recorder = spans.SpanRecorder("t")
    try:
        recorder.install()
        patched = list(recorder._originals)
    finally:
        recorder.restore()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert not recorder._originals
