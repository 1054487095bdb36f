"""The traced benchmark run finds every library name it wraps."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    # A refactor that drops or renames a traced entry point turns that
    # layer's benchmark metrics into null; catch it here instead.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
