"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public callables of the treebandit modules with
timing wrappers: module globals that ``harness`` and ``policy`` look up at
call time, and methods on the engine, environment and policy classes. Each
wrapper counts calls and accumulates self time in nanoseconds: the call's
wall time minus the wall time of traced calls nested inside it. Every
``run_one`` call also records a span. The node and environment random
streams are wrapped in a forwarding proxy that counts calls into them.

Nothing under ``src/`` is edited: the wrappers live only in the traced
process, and they change no value the program computes.
"""

from __future__ import annotations

import functools
import time

# Methods traced on every environment and policy class that defines them.
ENV_METHODS = ("costs", "expected_costs")
POLICY_METHODS = ("select", "update", "distribution", "observe_all", "set_expected_costs")


class _CountingStream:
    """Forwards every call to a numpy Generator and counts it."""

    __slots__ = ("_gen", "_counts", "_key")

    def __init__(self, gen, counts: dict, key: str) -> None:
        self._gen = gen
        self._counts = counts
        self._key = key

    def random(self, *args, **kwargs):
        self._counts[self._key] += 1
        return self._gen.random(*args, **kwargs)

    def exponential(self, *args, **kwargs):
        self._counts[self._key] += 1
        return self._gen.exponential(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._counts[self._key] += 1
            return attr(*args, **kwargs)

        return counted


class Tracer:
    def __init__(self, parent: str) -> None:
        self.parent = parent  # the workload every span belongs to
        self.acc: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self.spans: list[tuple[str, int, int]] = []  # (parent, start ns, end ns)
        self.rng_calls = {"env": 0, "policy": 0}
        self.negative_self = 0
        self._stack = [0]  # traced-child ns of each open call; [0] is the root

    def wrap(self, owner, attr: str, name: str, span: bool = False) -> None:
        fn = getattr(owner, attr)
        acc = self.acc.setdefault(name, [0, 0])
        stack = self._stack
        spans = self.spans
        parent = self.parent
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                own = elapsed - stack.pop()
                if own < 0:
                    self.negative_self += 1
                stack[-1] += elapsed
                acc[0] += 1
                acc[1] += own
                if span:
                    spans.append((parent, start, end))

        setattr(owner, attr, traced)

    def install(self) -> None:
        from treebandit import engine, env, harness, policy

        self.wrap(harness, "run_experiment", "harness.run_experiment")
        self.wrap(harness, "write_outputs", "harness.write_outputs")
        self.wrap(harness, "run_one", "harness.run_one", span=True)
        self.wrap(harness, "build_uniform_tree", "topology.build")
        self.wrap(harness, "build_chain_tree", "topology.build")
        self.wrap(harness, "build_env", "harness.build_env")
        self.wrap(harness, "build_policies", "harness.build_policies")
        self.wrap(engine.Simulation, "__init__", "engine.init")
        self.wrap(engine.Simulation, "run", "engine.run")
        self.wrap(engine.RegretLedger, "record", "engine.ledger")
        self.wrap(policy, "stable_softmax", "policy.softmax")
        for cls in _subclasses(env.CostEnvironment):
            for method in ENV_METHODS:
                if method in vars(cls):
                    self.wrap(cls, method, f"env.{method}")
        for cls in [policy.NodePolicy, *_subclasses(policy.NodePolicy)]:
            for method in POLICY_METHODS:
                if method in vars(cls):
                    self.wrap(cls, method, f"policy.{method}")

        make_streams = engine.rng_streams
        counts = self.rng_calls

        def counted_streams(topology, entropy):
            env_rng, node_rngs = make_streams(topology, entropy)
            return _CountingStream(env_rng, counts, "env"), [
                None if r is None else _CountingStream(r, counts, "policy") for r in node_rngs
            ]

        engine.rng_streams = counted_streams

    def dump(self) -> dict:
        return {
            "acc": self.acc,
            "rng_calls": self.rng_calls,
            "negative_self": self.negative_self,
            "spans": self.spans,
        }


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
