"""In-process runner for the traced run.

Reads ``{"commands": [[argv...], ...], "trace": true|false}`` on stdin,
imports ``chardeg.cli`` and calls ``chardeg.cli.main(argv)`` for each command
in this one process, with the command's stdout and stderr captured.  With
``trace`` set, timed wrappers are first put on the names each caller module
takes from the next layer (``alternating.cmp_power``, ``lie_type.cmp_power``
and ``structure_bounds.cmp_power`` are three separate wrappers), so nothing
under ``src/`` is edited.  A wrapped name that the code under test does not
have is listed as absent and its metrics read 0.

Prints one JSON object: per command the wall time, exit code and stdout
digest, and with ``trace`` the per-layer metrics.  Run by ``run.py`` with
``PYTHONPATH`` set to the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import sys
import time

# (module under chardeg, attribute, layer).  A layer that appears under
# several callers is summed; "@caller" marks the binding a wrapper sits on.
# Layers with no metric of their own are wrapped so that their time is not
# counted as their caller's self time.
SPANS = (
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "run", "cli.run"),
    ("cli", "hooks", "partitions.hooks@cli"),
    ("cli", "partition_degree", "partitions.degree@cli"),
    ("cli", "parse_partition", "partitions.parse_partition@cli"),
    ("cli", "cyclotomic", "exact_arith.cyclotomic@cli"),
    ("cli", "eval_poly", "exact_arith.eval_poly@cli"),
    ("alternating", "check_witness", "alternating.check_witness"),
    ("alternating", "_evidence", "alternating.evidence"),
    ("alternating", "check_factorial_lower", "alternating.check_factorial_lower"),
    ("alternating", "check_growth", "alternating.check_growth"),
    ("alternating", "check_constant", "alternating.check_constant"),
    ("alternating", "check_hook_upper", "alternating.check_hook_upper"),
    ("alternating", "hooks", "partitions.hooks@alternating"),
    ("alternating", "cmp_power", "exact_arith.cmp_power@alternating"),
    ("alternating", "const_interval", "exact_arith.const_interval@alternating"),
    ("lie_type", "sweep", "lie_type.sweep"),
    ("lie_type", "make_spec", "lie_type.make_spec"),
    ("lie_type", "validate", "lie_type.validate"),
    ("lie_type", "order", "lie_type.order"),
    ("lie_type", "steinberg_degree", "lie_type.steinberg_degree"),
    ("lie_type", "beta_degree", "lie_type.beta_degree"),
    ("lie_type", "check_steinberg_gap", "lie_type.check_steinberg_gap"),
    ("lie_type", "check_min_ratio", "lie_type.check_min_ratio"),
    ("lie_type", "cmp_power", "exact_arith.cmp_power@lie_type"),
    ("lie_type", "is_prime", "exact_arith.is_prime@lie_type"),
    ("lie_type", "cyclotomic", "exact_arith.cyclotomic@lie_type"),
    ("lie_type", "eval_poly", "exact_arith.eval_poly@lie_type"),
    ("degree_data", "load_dir", "degree_data.load_dir"),
    ("degree_data", "check_extendible_pair", "degree_data.check_extendible_pair"),
    ("degree_data", "rat", "degree_data.rat"),
    ("degree_data", "check_exponent_bound", "degree_data.check_exponent_bound"),
    ("structure_bounds", "cmp_power", "exact_arith.cmp_power@structure_bounds"),
    ("structure_bounds", "is_prime", "exact_arith.is_prime@structure_bounds"),
    ("structure_bounds", "nth_root_floor", "exact_arith.nth_root_floor@structure_bounds"),
)
# Generators: only the items they yield are counted.
GENERATORS = (
    ("alternating", "partitions_of", "partitions.partitions_of"),
    ("alternating", "_digit_ladder", "alternating.digit_ladder"),
)
# Every public function of these modules is one summed layer.
MODULE_LAYERS = ("structure_bounds",)
HANDLER_PREFIX = "_cmd_"  # the CLI's subcommand handlers


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n > 10 else 0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def _operand_bits(args) -> int:
    # cmp_power(a, p, b, s): bit size of the larger of a**p and b**s.
    a, p, b, s = args[:4]
    return max(
        p * getattr(a, "numerator", a).bit_length(),
        s * getattr(b, "numerator", b).bit_length(),
    )


class Tracer:
    def __init__(self) -> None:
        self.stack: list[float] = []  # time covered by children, per open span
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self.extra = {"candidates": 0, "operand_bits_max": 0, "points": 0, "excluded": 0}
        self.witness_durations: list[float] = []

    def _stat(self, layer: str) -> dict:
        return self.stats.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "yielded": 0, "max_item": 0}
        )

    def span(self, layer: str, fn, observe=None, durations: list | None = None):
        stat = self._stat(layer)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - child
                if durations is not None:
                    durations.append(dt)
            if layer == "alternating.check_witness":
                self.extra["candidates"] += getattr(result, "candidates_tried", 0)
            elif layer == "lie_type.sweep" and isinstance(result, list):
                self.extra["points"] += len(result)
                self.extra["excluded"] += sum(1 for e in result if hasattr(e, "reason"))
            return result

        return wrapper

    def counting(self, layer: str, gen_fn):
        stat = self._stat(layer)

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            for item in gen_fn(*args, **kwargs):
                stat["yielded"] += 1
                if isinstance(item, int):
                    stat["max_item"] = max(stat["max_item"], item)
                yield item

        return wrapper

    def _observe_cmp(self, args) -> None:
        try:
            bits = _operand_bits(args)
        except (TypeError, ValueError, AttributeError):
            return
        self.extra["operand_bits_max"] = max(self.extra["operand_bits_max"], bits)

    def install(self) -> None:
        for mod_name, attr, layer in SPANS + GENERATORS:
            mod = _module(mod_name)
            fn = getattr(mod, attr, None) if mod else None
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if (mod_name, attr, layer) in GENERATORS:
                wrapped = self.counting(layer, fn)
            elif attr == "cmp_power":
                wrapped = self.span(layer, fn, observe=self._observe_cmp)
            elif layer == "alternating.check_witness":
                wrapped = self.span(layer, fn, durations=self.witness_durations)
            else:
                wrapped = self.span(layer, fn)
            setattr(mod, attr, wrapped)
        for mod_name in MODULE_LAYERS:
            mod = _module(mod_name)
            names = getattr(mod, "__all__", []) if mod else []
            fns = [n for n in names if inspect.isfunction(getattr(mod, n, None))]
            if not fns:
                self.absent.append(f"{mod_name}.*")
            for name in fns:
                setattr(mod, name, self.span(mod_name, getattr(mod, name)))
        cli = _module("cli")
        handlers = [n for n in vars(cli) if n.startswith(HANDLER_PREFIX)] if cli else []
        if not handlers:
            self.absent.append(f"cli.{HANDLER_PREFIX}*")
        for name in handlers:
            setattr(cli, name, self.span("cli.handler", getattr(cli, name)))

    def _sum(self, prefix: str, key: str) -> float:
        return sum(
            s[key] for layer, s in self.stats.items() if layer == prefix or layer.startswith(prefix + "@")
        )

    def metrics(self, main_s: float, stdout_bytes: int) -> dict:
        """Per-layer metrics of one traced pass; layers never called read 0."""
        calls = lambda layer: self._sum(layer, "calls")  # noqa: E731
        self_s = lambda layer: self._sum(layer, "self_s")  # noqa: E731
        get = lambda layer, key: self.stats.get(layer, {}).get(key, 0)  # noqa: E731
        points = self.extra["points"]
        wd = [d * 1000 for d in self.witness_durations]
        exact = _module("exact_arith")
        cache = getattr(exact, "_CYCLOTOMIC_CACHE", None) if exact else None
        if cache is None:
            self.absent.append("exact_arith._CYCLOTOMIC_CACHE")
        witness_calls = calls("alternating.check_witness")
        return {
            "cli.parse_s": get("cli.build_parser", "total_s") + get("cli.run", "self_s"),
            "cli.handler_s": self_s("cli.handler"),
            "cli.render_s": main_s - get("cli.run", "total_s") if "cli.run" in self.stats else 0.0,
            "cli.stdout_bytes": stdout_bytes,
            "alternating.check_witness.calls": witness_calls,
            "alternating.check_witness.self_s": self_s("alternating.check_witness"),
            "alternating.check_witness.p50_ms": percentile(wd, 50) if wd else 0.0,
            "alternating.check_witness.tail_ms": percentile(wd, tail_pct(len(wd))) if wd else 0.0,
            "alternating.candidates_per_witness": (
                self.extra["candidates"] / witness_calls if witness_calls else 0.0
            ),
            "alternating.evidence.self_s": self_s("alternating.evidence"),
            "alternating.check_factorial_lower.self_s": self_s("alternating.check_factorial_lower"),
            "alternating.check_growth.self_s": self_s("alternating.check_growth"),
            "alternating.check_constant.self_s": self_s("alternating.check_constant"),
            "alternating.interval_steps": get("alternating.digit_ladder", "yielded"),
            "alternating.interval_digits_max": get("alternating.digit_ladder", "max_item"),
            "partitions.hooks.calls": calls("partitions.hooks"),
            "partitions.hooks.self_s": self_s("partitions.hooks"),
            "partitions.partitions_of.yielded": get("partitions.partitions_of", "yielded"),
            "exact_arith.cmp_power.calls": calls("exact_arith.cmp_power"),
            "exact_arith.cmp_power.self_s": self_s("exact_arith.cmp_power"),
            "exact_arith.cmp_power.operand_bits_max": self.extra["operand_bits_max"],
            "exact_arith.cmp_power.calls_from_alternating": get(
                "exact_arith.cmp_power@alternating", "calls"
            ),
            "exact_arith.cmp_power.calls_from_lie_type": get("exact_arith.cmp_power@lie_type", "calls"),
            "exact_arith.cmp_power.calls_from_structure_bounds": get(
                "exact_arith.cmp_power@structure_bounds", "calls"
            ),
            "exact_arith.is_prime.calls": calls("exact_arith.is_prime"),
            "exact_arith.is_prime.self_s": self_s("exact_arith.is_prime"),
            "exact_arith.cyclotomic.calls": calls("exact_arith.cyclotomic"),
            "exact_arith.cyclotomic.cache_size": len(cache) if cache is not None else 0,
            "exact_arith.const_interval.calls": calls("exact_arith.const_interval"),
            "exact_arith.const_interval.self_s": self_s("exact_arith.const_interval"),
            "exact_arith.nth_root_floor.calls": calls("exact_arith.nth_root_floor"),
            "exact_arith.nth_root_floor.self_s": self_s("exact_arith.nth_root_floor"),
            "lie_type.sweep.self_s": self_s("lie_type.sweep"),
            "lie_type.points": points,
            "lie_type.excluded": self.extra["excluded"],
            "lie_type.validate.calls": calls("lie_type.validate"),
            "lie_type.validate.self_s": self_s("lie_type.validate"),
            "lie_type.validate.per_point": calls("lie_type.validate") / points if points else 0.0,
            "lie_type.order.calls": calls("lie_type.order"),
            "lie_type.order.self_s": self_s("lie_type.order"),
            "lie_type.order.per_point": calls("lie_type.order") / points if points else 0.0,
            "lie_type.beta_degree.calls": calls("lie_type.beta_degree"),
            "lie_type.beta_degree.self_s": self_s("lie_type.beta_degree"),
            "degree_data.load_dir.self_s": self_s("degree_data.load_dir"),
            "degree_data.check_extendible_pair.calls": calls("degree_data.check_extendible_pair"),
            "degree_data.check_extendible_pair.self_s": self_s("degree_data.check_extendible_pair"),
            "structure_bounds.calls": calls("structure_bounds"),
            "structure_bounds.self_s": self_s("structure_bounds"),
        }


def _module(name: str):
    try:
        return importlib.import_module(f"chardeg.{name}")
    except ImportError:
        return None


def main() -> int:
    request = json.load(sys.stdin)
    tracer = Tracer()
    if request["trace"]:
        tracer.install()
    from chardeg import cli

    results, main_s, stdout_bytes = [], 0.0, 0
    for argv in request["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # reported as a mismatch by run.py
                rc = f"raised {exc!r}"
            dt = time.perf_counter() - t0
        data = out.getvalue().encode()
        main_s += dt
        stdout_bytes += len(data)
        results.append({"wall_s": dt, "rc": rc, "sha256": hashlib.sha256(data).hexdigest()})
    doc = {"commands": results}
    if request["trace"]:
        doc["metrics"] = tracer.metrics(main_s, stdout_bytes)
        doc["absent"] = sorted(set(tracer.absent))
        doc["layers"] = tracer.stats
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
