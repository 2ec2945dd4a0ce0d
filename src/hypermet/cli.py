"""Command-line front end.

Every command prints a single JSON document (or CSV table) with the
command name, an echo of its configuration, the seed, and a results
list.  Identical configuration and seed produce byte-identical JSON.

Exit codes: 0 success (including boolean queries answering False),
1 failed verdict (a scenario assertion, a probe violation, or an
indeterminate comparison), 2 usage or configuration errors.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import scenarios
from .actions import act, maps_into, probe_action_continuity
from .errors import AmbientMismatch, Indeterminate, UnsupportedPair
from .hitmiss import Constraint, converges, neighborhood
from .hypermetrics import CertifiedValue, aw_less_than
from .induced import (aw_continuity_conditions, induced_image, metric_by_name,
                      probe_induced_continuity)
from .literals import (LiteralError, parse_element, parse_map, parse_open_set,
                       parse_set, parse_space)
from .sets import ClosedSet

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# serialization


def _plain(value):
    """Recursively convert results to JSON-encodable primitives."""
    if isinstance(value, CertifiedValue):
        return {"lo": value.lo,
                "hi": "inf" if value.hi.is_inf else value.hi.as_float(),
                "method": value.method}
    if isinstance(value, ClosedSet):
        return {"kind": type(value.rep).__name__, "rep": repr(value.rep)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and value != value:  # NaN never belongs in output
        raise RuntimeError("refusing to serialize NaN")
    if isinstance(value, float) and (value == float("inf") or value == float("-inf")):
        return "inf" if value > 0 else "-inf"
    return value


def _emit(ctx, command: str, config_echo: dict, results: list, failed: bool):
    doc = {
        "version": SCHEMA_VERSION,
        "command": command,
        "seed": ctx.obj["seed"],
        "config_echo": _plain(config_echo),
        "results": _plain(results),
    }
    if ctx.obj["format"] == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = _to_csv(doc)
    out = ctx.obj["out"]
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    if failed:
        sys.exit(1)


def _to_csv(doc) -> str:
    rows = []
    for res in doc["results"]:
        flat = {"command": doc["command"], "seed": doc["seed"]}
        for key, val in res.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    flat[f"{key}.{k2}"] = v2
            elif isinstance(val, list):
                flat[key] = json.dumps(val)
            else:
                flat[key] = val
        rows.append(flat)
    cols = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _usage(exc) -> "click.UsageError":
    return click.UsageError(str(exc))


# ---------------------------------------------------------------------------
# the group


@click.group()
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True, help="output encoding")
@click.option("--seed", type=int, default=scenarios.DEFAULT_SEED,
              show_default=True, help="seed echoed into the output and used "
              "by randomized commands")
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="write output to this file instead of stdout")
@click.pass_context
def main(ctx, fmt, seed, out):
    """Certified hyperspace distances, induced maps, and group actions."""
    ctx.obj = {"format": fmt, "seed": seed, "out": out}


def _parse(fn, *args):
    try:
        return fn(*args)
    except (LiteralError, ValueError, AmbientMismatch) as exc:
        raise _usage(exc)


# ---------------------------------------------------------------------------
# dist


@main.command()
@click.option("--metric", type=click.Choice(["H", "H-", "H+", "AW"]), default="H",
              show_default=True)
@click.option("--space", "space_text", default="line", show_default=True)
@click.option("--tol", type=float, default=None,
              help="certificate width target (AW only)")
@click.option("--node-cap", type=int, default=None,
              help="grid budget for n-dimensional certification (AW only)")
@click.argument("set_a")
@click.argument("set_b")
@click.pass_context
def dist(ctx, metric, space_text, tol, node_cap, set_a, set_b):
    """Certified distance between two closed-set literals."""
    space = _parse(parse_space, space_text)
    A = _parse(parse_set, set_a, space)
    B = _parse(parse_set, set_b, space)
    kwargs = {}
    if tol is not None or node_cap is not None:
        if metric != "AW":
            raise _usage("--tol/--node-cap apply only to the AW metric")
        if tol is not None:
            kwargs["tol"] = tol
        if node_cap is not None:
            kwargs["node_cap"] = node_cap
    try:
        value = metric_by_name(metric)(A, B, **kwargs)
    except (UnsupportedPair, AmbientMismatch) as exc:
        raise _usage(exc)
    _emit(ctx, "dist",
          {"metric": metric, "space": space_text, "set_a": set_a, "set_b": set_b,
           "tol": tol, "node_cap": node_cap},
          [{"name": f"{metric}(A, B)", "value": value}], failed=False)


# ---------------------------------------------------------------------------
# aw-lt


@main.command("aw-lt")
@click.option("--space", "space_text", default="line", show_default=True)
@click.option("--tol", type=float, default=None)
@click.option("--node-cap", type=int, default=None)
@click.argument("set_a")
@click.argument("set_b")
@click.argument("eps", type=float)
@click.pass_context
def aw_lt(ctx, space_text, tol, node_cap, set_a, set_b, eps):
    """Decide whether the windowed distance is below EPS (in (0, 1))."""
    space = _parse(parse_space, space_text)
    A = _parse(parse_set, set_a, space)
    B = _parse(parse_set, set_b, space)
    kwargs = {}
    if tol is not None:
        kwargs["tol"] = tol
    if node_cap is not None:
        kwargs["node_cap"] = node_cap
    echo = {"space": space_text, "set_a": set_a, "set_b": set_b, "eps": eps,
            "tol": tol, "node_cap": node_cap}
    try:
        verdict = aw_less_than(A, B, eps, **kwargs)
    except Indeterminate as exc:
        _emit(ctx, "aw-lt", echo,
              [{"name": f"AW(A, B) < {eps}", "value": "indeterminate",
                "detail": str(exc)}], failed=True)
        return
    except (UnsupportedPair, AmbientMismatch, ValueError) as exc:
        raise _usage(exc)
    _emit(ctx, "aw-lt", echo,
          [{"name": f"AW(A, B) < {eps}", "value": verdict}], failed=False)


# ---------------------------------------------------------------------------
# converge


_FAMILIES = {
    "reciprocal": ("{1/k}", lambda space: lambda k: ClosedSet.points(space, [1.0 / k])),
    "escaping": ("{k}", lambda space: lambda k: ClosedSet.points(space, [float(k)])),
    "approach": ("{1 + 1/k}", lambda space: lambda k: ClosedSet.points(space, [1.0 + 1.0 / k])),
}


@main.command()
@click.option("--family", type=click.Choice(sorted(_FAMILIES)), required=True,
              help="preset sequence of closed sets")
@click.option("--space", "space_text", default="line", show_default=True)
@click.option("--hit", "hit_texts", multiple=True,
              help="open set the terms must meet (repeatable)")
@click.option("--contain", "contain_texts", multiple=True,
              help="open set the terms must fit inside (repeatable)")
@click.option("--miss", "miss_texts", multiple=True,
              help="compact set the terms must avoid (repeatable)")
@click.option("--horizon", type=int, default=1000, show_default=True)
@click.pass_context
def converge(ctx, family, space_text, hit_texts, contain_texts, miss_texts, horizon):
    """Scan a preset family against hit/contain/miss constraints."""
    space = _parse(parse_space, space_text)
    constraints = []
    for text in hit_texts:
        constraints.append(Constraint.hit(_parse(parse_open_set, text, space)))
    for text in contain_texts:
        constraints.append(Constraint.contain(_parse(parse_open_set, text, space)))
    for text in miss_texts:
        constraints.append(Constraint.miss(_parse(parse_set, text, space)))
    if not constraints:
        raise _usage("give at least one --hit/--contain/--miss constraint")
    desc, make = _FAMILIES[family]
    try:
        report = converges(make(space), neighborhood(*constraints), horizon=horizon)
    except (UnsupportedPair, AmbientMismatch, ValueError) as exc:
        raise _usage(exc)
    results = [{"name": e.label,
                "value": {"passed": e.passed, "settles_at": e.settles_at,
                          "witness": e.witness}}
               for e in report.entries]
    results.append({"name": "overall", "value": report.passed})
    _emit(ctx, "converge",
          {"family": family, "family_terms": desc, "space": space_text,
           "hit": list(hit_texts), "contain": list(contain_texts),
           "miss": list(miss_texts), "horizon": horizon},
          results, failed=not report.passed)


# ---------------------------------------------------------------------------
# induce


@main.command()
@click.option("--map", "map_text", required=True, help="map literal")
@click.option("--space", "space_text", default=None,
              help="domain for maps that take one (identity, arctan)")
@click.argument("set_text")
@click.pass_context
def induce(ctx, map_text, space_text, set_text):
    """Push a closed set through a map; report the image and the
    continuity conditions of the map."""
    space = _parse(parse_space, space_text) if space_text else None
    f = _parse(parse_map, map_text, space)
    A = _parse(parse_set, set_text, f.domain)
    try:
        image = induced_image(f, A)
    except (UnsupportedPair, AmbientMismatch) as exc:
        raise _usage(exc)
    conds = aw_continuity_conditions(f)
    _emit(ctx, "induce",
          {"map": map_text, "space": space_text, "set": set_text},
          [{"name": "image", "value": image},
           {"name": "conditions",
            "value": {"uniform_on_bounded": conds.cond1,
                      "bounded_preimages": conds.cond2,
                      "overall": conds.overall,
                      "notes": [conds.cond1_note, conds.cond2_note]}}],
          failed=False)


# ---------------------------------------------------------------------------
# probe-induced


@main.command("probe-induced")
@click.option("--map", "map_text", required=True)
@click.option("--space", "space_text", default=None)
@click.option("--metric", type=click.Choice(["H", "H-", "H+", "AW"]), default="H",
              show_default=True)
@click.option("--perturb", "perturb_texts", multiple=True, required=True,
              help="closed-set literal near the base set (repeatable)")
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--deltas", default="1,0.1,0.01", show_default=True,
              help="comma-separated input-proximity schedule")
@click.argument("set_text")
@click.pass_context
def probe_induced(ctx, map_text, space_text, metric, perturb_texts, eps,
                  deltas, set_text):
    """Probe the induced map for an eps-jump under every delta."""
    space = _parse(parse_space, space_text) if space_text else None
    f = _parse(parse_map, map_text, space)
    A = _parse(parse_set, set_text, f.domain)
    perts = [_parse(parse_set, t, f.domain) for t in perturb_texts]
    schedule = _parse(lambda s: tuple(float(v) for v in s.split(",")), deltas)
    try:
        report = probe_induced_continuity(f, A, metric, perts,
                                          delta_schedule=schedule, eps=eps)
    except (UnsupportedPair, AmbientMismatch, ValueError) as exc:
        raise _usage(exc)
    results = [{"name": row.label,
                "value": {"d_in": _plain(row.d_in), "d_out": _plain(row.d_out)}}
               for row in report.rows]
    results.append({"name": "violation", "value": report.violation})
    _emit(ctx, "probe-induced",
          {"map": map_text, "space": space_text, "metric": metric,
           "set": set_text, "perturb": list(perturb_texts), "eps": eps,
           "deltas": deltas},
          results, failed=report.violation)


# ---------------------------------------------------------------------------
# action


@main.command()
@click.option("--element", "element_text", required=True, help="group element literal")
@click.option("--space", "space_text", default=None,
              help="ambient of the set (defaults to the element's space)")
@click.option("--into", "into_text", default=None,
              help="target set; reports whether the image fits inside it")
@click.argument("set_text")
@click.pass_context
def action(ctx, element_text, space_text, into_text, set_text):
    """Apply a group element to a closed set."""
    g = _parse(parse_element, element_text)
    space = _parse(parse_space, space_text) if space_text else g.space
    A = _parse(parse_set, set_text, space)
    try:
        image = act(g, A)
    except (UnsupportedPair, AmbientMismatch) as exc:
        raise _usage(exc)
    results = [{"name": "image", "value": image}]
    if into_text:
        B = _parse(parse_set, into_text, space)
        try:
            results.append({"name": "maps_into", "value": maps_into(g, A, B)})
        except UnsupportedPair as exc:
            raise _usage(exc)
    _emit(ctx, "action",
          {"element": element_text, "space": space_text, "set": set_text,
           "into": into_text},
          results, failed=False)


# ---------------------------------------------------------------------------
# probe-action


@main.command("probe-action")
@click.option("--element", "element_text", required=True)
@click.option("--metric", type=click.Choice(["H", "H-", "H+", "AW"]), default="H",
              show_default=True)
@click.option("--perturb", "perturb_texts", multiple=True, required=True,
              help="pair `element-literal ; set-literal` (repeatable)")
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--deltas", default="1,0.1,0.01", show_default=True)
@click.option("--ref-radius", type=float, default=10.0, show_default=True,
              help="radius of the ball the group distance is measured on")
@click.option("--tol", type=float, default=None)
@click.option("--node-cap", type=int, default=None)
@click.argument("set_text")
@click.pass_context
def probe_action(ctx, element_text, metric, perturb_texts, eps, deltas,
                 ref_radius, tol, node_cap, set_text):
    """Probe joint continuity of the action at (element, set)."""
    g = _parse(parse_element, element_text)
    A = _parse(parse_set, set_text, g.space)
    perts = []
    for text in perturb_texts:
        if ";" not in text:
            raise _usage(f"--perturb needs `element ; set`, got {text!r}")
        elem_text, _, s_text = text.partition(";")
        h = _parse(parse_element, elem_text.strip())
        B = _parse(parse_set, s_text.strip(), g.space)
        perts.append((h, B))
    schedule = _parse(lambda s: tuple(float(v) for v in s.split(",")), deltas)
    kwargs = {}
    if tol is not None:
        kwargs["tol"] = tol
    if node_cap is not None:
        kwargs["node_cap"] = node_cap
    try:
        report = probe_action_continuity(g, A, metric, perts,
                                         delta_schedule=schedule, eps=eps,
                                         ref_radius=ref_radius, **kwargs)
    except (UnsupportedPair, AmbientMismatch, ValueError) as exc:
        raise _usage(exc)
    results = [{"name": row.label,
                "value": {"d_group": _plain(row.d_group),
                          "d_set": _plain(row.d_set),
                          "d_out": _plain(row.d_out)}}
               for row in report.rows]
    results.append({"name": "violation", "value": report.violation})
    _emit(ctx, "probe-action",
          {"element": element_text, "metric": metric, "set": set_text,
           "perturb": list(perturb_texts), "eps": eps, "deltas": deltas,
           "ref_radius": ref_radius, "tol": tol, "node_cap": node_cap},
          results, failed=report.violation)


# ---------------------------------------------------------------------------
# scenario


@main.group()
def scenario():
    """Run or list the end-to-end studies."""


@scenario.command("list")
@click.pass_context
def scenario_list(ctx):
    results = [{"name": name, "value": "available"} for name in scenarios.available()]
    _emit(ctx, "scenario list", {}, results, failed=False)


@scenario.command("run")
@click.option("--param", "params", multiple=True,
              help="override a config field, e.g. --param k_max=5 (repeatable)")
@click.argument("name")
@click.pass_context
def scenario_run(ctx, params, name):
    overrides = {}
    for text in params:
        if "=" not in text:
            raise _usage(f"--param needs key=value, got {text!r}")
        key, _, val = text.partition("=")
        overrides[key.strip()] = _parse(_literal_value, val.strip())
    try:
        report = scenarios.run(name, seed=ctx.obj["seed"], **overrides)
    except (TypeError, ValueError) as exc:
        raise _usage(exc)
    results = [{"name": "table", "value": list(report.rows)}]
    results.extend({"name": a.name, "value": a.passed, "detail": a.detail}
                   for a in report.assertions)
    results.append({"name": "scenario passed", "value": report.passed})
    _emit(ctx, f"scenario run {name}",
          {"name": name, "params": _plain(report.params), "notes": report.notes},
          results, failed=not report.passed)


def _literal_value(text: str):
    import ast
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


if __name__ == "__main__":
    main()
