def test_every_trace_target_resolves(bench):
    # bench/tracing.py reports each per-layer metric whose wrapped name has
    # moved or gone as null, and a null metric fails the benchmark's run
    tracing = bench("tracing")
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert not tracer.missing
    finally:
        tracer.uninstall()
