"""Serial map, kept only because ``benchmarks/spans.py`` imports this module
and wraps :func:`pmap`; it goes with the benchmark change that drops that span."""


def pmap(fn, items):
    return [fn(x) for x in items]
