"""Outside-in layer spans: wrap tiger's functions where their callers find them.

Nothing in the package changes.  Each public function is replaced, for the
length of a traced run, at the module attribute its caller resolves at call
time (for example `tiger.generator.obb_distance` for scene sampling and
`tiger.geometry.obb_distance` for the program language).  Spans are kept in
memory and turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

import tiger.cli
import tiger.generator
import tiger.geometry
import tiger.minidsl
import tiger.rewards
import tiger.runtime
from tiger.scene import Scene

TOOLS = tuple(sorted(tiger.runtime.REGISTRY))
FAMILIES = tiger.generator.FAMILIES

# Tools whose result depends only on (scene, mode, call), so an identical
# earlier call within one record or group could have been reused.
_SCENE_PURE = frozenset(TOOLS) - {"code_executor"}

NAME, TAG, START, END, PARENT, REQUEST, ERROR = range(7)


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self.request = 0
        self.repeats = 0
        self.pure_calls = 0
        self._stack = []
        self._undo = []
        self._window = 0
        self._pure = []  # (window, scene, mode, call) of each scene-pure call

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name, describe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, describe(*args, **kwargs) if describe else None, 0.0, 0.0,
                    stack[-1] if stack else -1, self.request, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr, name, describe=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, name, describe))
        else:
            wrapped = self._wrap(original, name, describe)
        setattr(owner, attr, wrapped)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- span tags --------------------------------------------------------------

    def _new_window(self, *args, **kwargs):
        self._window += 1

    def _tool(self, ctx, call):
        if call.name in _SCENE_PURE:
            # keyed later by `count_repeats`, outside every span; holding the
            # scene keeps its id from being reused before then
            self._pure.append((self._window, ctx.scene, ctx.mode, call))
        return call.name

    def count_repeats(self):
        """Fold the scene-pure calls recorded so far into the repeat counts.

        Call it while no request is timed: it serialises each scene once.
        """
        seen, scene_keys, window = set(), {}, None
        for w, scene, mode, call in self._pure:
            if w != window:
                seen.clear()
                window = w
            key = scene_keys.get(id(scene))
            if key is None:
                key = scene_keys[id(scene)] = json.dumps(scene.to_dict(), sort_keys=True)
            self.pure_calls += 1
            if (key, mode, call) in seen:
                self.repeats += 1
            else:
                seen.add((key, mode, call))
        # every window opens and closes inside one request, and this runs
        # between requests, so no window is split across two calls
        self._pure.clear()

    def install(self):
        """Patch every traced entry point; undo with `restore`.

        A repeat window opens with each record (`build_record`) and each
        `tiger score` or `tiger run` request.
        """
        cli, gen, geo, rt = tiger.cli, tiger.generator, tiger.geometry, tiger.runtime
        window = self._new_window
        self.patch(cli, "cmd_score", "cli.score", window)
        self.patch(cli, "cmd_run", "cli.run", window)
        self.patch(gen, "build_record", "generator.build_record", window)
        self.patch(gen, "generate_scene", "generator.generate_scene")
        self.patch(gen, "instantiate", "generator.instantiate", lambda t, *a, **k: t.family)
        self.patch(gen, "self_check", "generator.self_check")
        for owner in (gen, geo):
            self.patch(owner, "obb_distance", "geometry.obb_distance")
        self.patch(rt, "fit_obb", "geometry.fit_obb")
        for owner in (rt, gen, tiger.rewards):
            self.patch(owner, "execute_tool", "runtime.execute_tool", self._tool)
        self.patch(rt, "cast_rays", "runtime.cast_rays", lambda s, v, u, *a: int(np.size(u)))
        for owner in (cli, gen):
            self.patch(owner, "parse_trajectory", "trajectory.parse_trajectory")
            self.patch(owner, "render_trajectory", "trajectory.render_trajectory")
        self.patch(Scene, "from_dict", "scene.Scene.from_dict")
        self.patch(cli, "score_trajectory", "rewards.score_trajectory")
        self.patch(tiger.minidsl, "run", "minidsl.run")
        self.patch(gen, "spatial_relation", "scenegraph.spatial_relation")
        self.patch(gen, "region_contains", "scenegraph.region_contains")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(tracer: Tracer, items: int) -> dict:
    """Every per-layer metric, as (value, unit, sample count) by name.

    Counts are per item (a generated sample, a scored candidate or a replayed
    trace), so they compare across versions whatever the run length.  A
    layer that does not run reports 0 calls and 0 for its times.
    """
    tracer.count_repeats()
    spans = tracer.spans
    durations = {}
    by_tag = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        d = span[END] - span[START]
        durations.setdefault(span[NAME], []).append(d)
        by_tag.setdefault((span[NAME], span[TAG]), []).append(d)
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += d

    def times(name, tag=None):
        return durations.get(name, []) if tag is None else by_tag.get((name, tag), [])

    def self_times(name, tag=None):
        return [
            (s[END] - s[START]) - child_time[i]
            for i, s in enumerate(spans)
            if s[NAME] == name and (tag is None or s[TAG] == tag)
        ]

    out = {}

    def put(name, value, unit, n):
        out[name] = (float(value), unit, int(n))

    def calls(metric, name, tag=None):
        n = len(times(name, tag))
        put(metric, n / items, "calls/item", n)

    def pct(metric, values, q, scale):
        unit = {1e3: "ms", 1e6: "us"}[scale]
        put(metric, percentile(values, q) * scale, unit, len(values))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    scene_calls = times("generator.generate_scene")
    records = [s for s in spans if s[NAME] == "generator.build_record" and not s[ERROR]]
    pct("generator.generate_scene.ms_p50", scene_calls, 50, 1e3)
    pct("generator.generate_scene.ms_p99", scene_calls, 99, 1e3)
    calls("generator.generate_scene.calls", "generator.generate_scene")
    put("generator.records_per_attempt", ratio(len(records), len(scene_calls)),
        "ratio", len(scene_calls))
    pct("generator.build_record.ms_p50", times("generator.build_record"), 50, 1e3)
    pct("generator.build_record.ms_p99", times("generator.build_record"), 99, 1e3)
    pct("generator.self_check.ms_p50", times("generator.self_check"), 50, 1e3)
    for family in FAMILIES:
        pct(f"generator.instantiate.{family}.ms_p50",
            times("generator.instantiate", family), 50, 1e3)

    calls("geometry.obb_distance.calls", "geometry.obb_distance")
    pct("geometry.obb_distance.us_p50", times("geometry.obb_distance"), 50, 1e6)
    pct("geometry.fit_obb.us_p50", times("geometry.fit_obb"), 50, 1e6)

    for tool in TOOLS:
        calls(f"runtime.execute_tool.{tool}.calls", "runtime.execute_tool", tool)
        pct(f"runtime.execute_tool.{tool}.ms_p50", times("runtime.execute_tool", tool), 50, 1e3)
    for tool in ("depth_sensor", "object_segmentation"):
        pct(f"runtime.execute_tool.{tool}.ms_p99", times("runtime.execute_tool", tool), 99, 1e3)
    errors = sum(1 for s in spans if s[NAME] == "runtime.execute_tool" and s[ERROR])
    put("runtime.execute_tool.errors", errors / items, "errors/item", errors)
    put("runtime.repeat_call_frac", ratio(tracer.repeats, tracer.pure_calls),
        "fraction", tracer.pure_calls)

    cast = [s for s in spans if s[NAME] == "runtime.cast_rays"]
    rays = sum(s[TAG] for s in cast)
    cast_seconds = sum(s[END] - s[START] for s in cast)
    calls("runtime.cast_rays.calls", "runtime.cast_rays")
    put("runtime.cast_rays.rays", rays / items, "rays/item", len(cast))
    put("runtime.cast_rays.mrays_per_s", ratio(rays, cast_seconds) / 1e6, "Mrays/s", len(cast))
    pct("runtime.object_segmentation.self_ms_p50",
        self_times("runtime.execute_tool", "object_segmentation"), 50, 1e3)

    calls("trajectory.parse_trajectory.calls", "trajectory.parse_trajectory")
    pct("trajectory.parse_trajectory.us_p50", times("trajectory.parse_trajectory"), 50, 1e6)
    pct("trajectory.render_trajectory.us_p50", times("trajectory.render_trajectory"), 50, 1e6)
    calls("scene.Scene.from_dict.calls", "scene.Scene.from_dict")
    pct("scene.Scene.from_dict.us_p50", times("scene.Scene.from_dict"), 50, 1e6)
    score_decodes = sum(
        1 for s in spans
        if s[NAME] == "scene.Scene.from_dict" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "cli.score"
    )
    scored = len(times("rewards.score_trajectory"))
    put("scene.decodes_per_candidate", ratio(score_decodes, scored), "ratio", scored)
    pct("cli.score.self_ms_p50", self_times("cli.score"), 50, 1e3)
    pct("rewards.score_trajectory.ms_p50", times("rewards.score_trajectory"), 50, 1e3)
    pct("rewards.score_trajectory.ms_p99", times("rewards.score_trajectory"), 99, 1e3)
    calls("minidsl.run.calls", "minidsl.run")
    pct("minidsl.run.us_p50", times("minidsl.run"), 50, 1e6)
    calls("scenegraph.spatial_relation.calls", "scenegraph.spatial_relation")
    calls("scenegraph.region_contains.calls", "scenegraph.region_contains")
    return out

