"""Timing helpers shared by the tools in this directory: sum the seconds
spent in chosen simulator functions, and the quartiles of a sample.

Import it after the thread pins are set, since it imports the package
and so NumPy."""

from __future__ import annotations

import contextlib
import statistics
import time

from vqe_bench import simulator


@contextlib.contextmanager
def timed(names, sink: dict):
    """Wrap simulator functions so each call adds its seconds to sink."""
    originals = {name: getattr(simulator, name) for name in names}

    def wrapper(name, function):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                sink[name] = sink.get(name, 0.0) + time.perf_counter() - start
        return call

    try:
        for name, function in originals.items():
            setattr(simulator, name, wrapper(name, function))
        yield
    finally:
        for name, function in originals.items():
            setattr(simulator, name, function)


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}
