"""Command-line front end.

Every command prints a single JSON document (or CSV table) with the
command name, an echo of its configuration, the seed, and a results
list.  Identical configuration and seed produce byte-identical JSON.

Exit codes: 0 success (including boolean queries answering False),
1 failed verdict (a scenario assertion, a probe violation, or an
indeterminate answer), 2 usage or configuration errors.
"""

from __future__ import annotations

import csv
import functools
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
from .literals import (parse_element, parse_fields, parse_map, parse_open_set,
                       parse_set, parse_space)
from .sets import ClosedSet

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# serialization


def _plain(value):
    """Recursively convert results to JSON-encodable primitives."""
    if isinstance(value, CertifiedValue):
        return value.to_plain()
    if isinstance(value, ClosedSet):
        return {"kind": type(value.rep).__name__, "rep": repr(value.rep)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and value != value:  # NaN never belongs in output
        raise click.UsageError("refusing to serialize NaN")
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
    if ctx.obj["out"]:
        with open(ctx.obj["out"], "w") as fh:
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
    cols = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the group and the command pipeline


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


def _command(group, name: str, answer: str, title: str = None):
    """Register BODY as command NAME of GROUP.  BODY maps the command's
    parameters to (results, failed).  Input the parser or the library
    refuses (ValueError, AmbientMismatch, UnsupportedPair) exits 2; an
    Indeterminate answer becomes the one result ANSWER, "indeterminate",
    exit 1.  ctx.params, which BODY may extend, is echoed and formats
    ANSWER and TITLE (default NAME)."""
    def register(body):
        @functools.wraps(body)  # carries the click parameters body declares
        def run(**params):
            ctx = click.get_current_context()
            try:
                results, failed = body(**params)
            except Indeterminate as exc:
                results = [{"name": answer.format(**params), "value": "indeterminate",
                            "detail": str(exc)}]
                failed = True
            except (ValueError, AmbientMismatch, UnsupportedPair) as exc:
                raise click.UsageError(str(exc)) from exc
            _emit(ctx, (title or name).format(**params), ctx.params, results, failed)
        return group.command(name)(run)
    return register


def _space(default="line", help=None):
    return click.option("--space", default=default, show_default=True, help=help)


_METRIC = click.option("--metric", type=click.Choice(["H", "H-", "H+", "AW"]),
                       default="H", show_default=True)
_TOL = click.option("--tol", type=float, default=None,
                    help="certificate width target (AW only)")
_NODE_CAP = click.option("--node-cap", type=int, default=None,
                         help="evaluation budget for n-dimensional branch-and-bound (AW only)")
_EPS = click.option("--eps", type=float, default=0.1, show_default=True)
_DELTAS = click.option("--deltas", default="1,0.1,0.01", show_default=True,
                       help="comma-separated input-proximity schedule")


def _budget(tol, node_cap, metric="AW") -> dict:
    """The --tol/--node-cap keywords given, for the AW metric only."""
    kwargs = {k: v for k, v in (("tol", tol), ("node_cap", node_cap)) if v is not None}
    if kwargs and metric != "AW":
        raise click.UsageError("--tol/--node-cap apply only to the AW metric")
    return kwargs


def _schedule(deltas: str) -> tuple:
    return tuple(float(v) for v in deltas.split(","))


# ---------------------------------------------------------------------------
# distances and convergence


@_command(main, "dist", answer="{metric}(A, B)")
@_METRIC
@_space()
@_TOL
@_NODE_CAP
@click.argument("set_a")
@click.argument("set_b")
def dist(metric, space, tol, node_cap, set_a, set_b):
    """Certified distance between two closed-set literals."""
    X = parse_space(space)
    value = metric_by_name(metric)(parse_set(set_a, X), parse_set(set_b, X),
                                   **_budget(tol, node_cap, metric))
    return [{"name": f"{metric}(A, B)", "value": value}], False


@_command(main, "aw-lt", answer="AW(A, B) < {eps}")
@_space()
@_TOL
@_NODE_CAP
@click.argument("set_a")
@click.argument("set_b")
@click.argument("eps", type=float)
def aw_lt(space, tol, node_cap, set_a, set_b, eps):
    """Decide whether the windowed distance is below EPS (in (0, 1))."""
    X = parse_space(space)
    verdict = aw_less_than(parse_set(set_a, X), parse_set(set_b, X), eps,
                           **_budget(tol, node_cap))
    return [{"name": f"AW(A, B) < {eps}", "value": verdict}], False


_FAMILIES = {
    "reciprocal": ("{1/k}", lambda space: lambda k: ClosedSet.points(space, [1.0 / k])),
    "escaping": ("{k}", lambda space: lambda k: ClosedSet.points(space, [float(k)])),
    "approach": ("{1 + 1/k}", lambda space: lambda k: ClosedSet.points(space, [1.0 + 1.0 / k])),
}


@_command(main, "converge", answer="overall")
@click.option("--family", type=click.Choice(sorted(_FAMILIES)), required=True,
              help="preset sequence of closed sets")
@_space()
@click.option("--hit", multiple=True,
              help="open set the terms must meet (repeatable)")
@click.option("--contain", multiple=True,
              help="open set the terms must fit inside (repeatable)")
@click.option("--miss", multiple=True,
              help="compact set the terms must avoid (repeatable)")
@click.option("--horizon", type=int, default=1000, show_default=True)
def converge(family, space, hit, contain, miss, horizon):
    """Scan a preset family against hit/contain/miss constraints."""
    X = parse_space(space)
    constraints = ([Constraint.hit(parse_open_set(t, X)) for t in hit]
                   + [Constraint.contain(parse_open_set(t, X)) for t in contain]
                   + [Constraint.miss(parse_set(t, X)) for t in miss])
    if not constraints:
        raise click.UsageError("give at least one --hit/--contain/--miss constraint")
    desc, make = _FAMILIES[family]
    click.get_current_context().params["family_terms"] = desc
    report = converges(make(X), neighborhood(*constraints), horizon=horizon)
    results = [{"name": e.label,
                "value": {"passed": e.passed, "settles_at": e.settles_at,
                          "witness": e.witness}}
               for e in report.entries]
    results.append({"name": "overall", "value": report.passed})
    return results, not report.passed


# ---------------------------------------------------------------------------
# induced maps and group actions


@_command(main, "induce", answer="image")
@click.option("--map", required=True, help="map literal")
@_space(None, "domain for maps that take one (identity, arctan)")
@click.argument("set", metavar="SET_TEXT")
def induce(map, space, set):
    """Push a closed set through a map; report the image and the
    continuity conditions of the map."""
    f = parse_map(map, parse_space(space) if space else None)
    image = induced_image(f, parse_set(set, f.domain))
    conds = aw_continuity_conditions(f)
    return [{"name": "image", "value": image},
            {"name": "conditions",
             "value": {"uniform_on_bounded": conds.cond1, "bounded_preimages": conds.cond2,
                       "overall": conds.overall,
                       "notes": [conds.cond1_note, conds.cond2_note]}}], False


@_command(main, "probe-induced", answer="violation")
@click.option("--map", required=True)
@_space(None)
@_METRIC
@click.option("--perturb", multiple=True, required=True,
              help="closed-set literal near the base set (repeatable)")
@_EPS
@_DELTAS
@click.argument("set", metavar="SET_TEXT")
def probe_induced(map, space, metric, perturb, eps, deltas, set):
    """Probe the induced map for an eps-jump under every delta."""
    f = parse_map(map, parse_space(space) if space else None)
    report = probe_induced_continuity(
        f, parse_set(set, f.domain), metric, [parse_set(t, f.domain) for t in perturb],
        delta_schedule=_schedule(deltas), eps=eps)
    results = [{"name": row.label,
                "value": {"d_in": row.d_in.to_plain(), "d_out": row.d_out.to_plain()}}
               for row in report.rows]
    results.append({"name": "violation", "value": report.violation})
    return results, report.violation


@_command(main, "action", answer="image")
@click.option("--element", required=True, help="group element literal")
@_space(None, "ambient of the set (defaults to the element's space)")
@click.option("--into", default=None,
              help="target set; reports whether the image fits inside it")
@click.argument("set", metavar="SET_TEXT")
def action(element, space, into, set):
    """Apply a group element to a closed set."""
    g = parse_element(element)
    X = parse_space(space) if space else g.space
    A = parse_set(set, X)
    results = [{"name": "image", "value": act(g, A)}]
    if into:
        results.append({"name": "maps_into", "value": maps_into(g, A, parse_set(into, X))})
    return results, False


@_command(main, "probe-action", answer="violation")
@click.option("--element", required=True)
@_METRIC
@click.option("--perturb", multiple=True, required=True,
              help="pair `element-literal ; set-literal` (repeatable)")
@_EPS
@_DELTAS
@click.option("--ref-radius", type=float, default=10.0, show_default=True,
              help="radius of the ball the group distance is measured on")
@_TOL
@_NODE_CAP
@click.argument("set", metavar="SET_TEXT")
def probe_action(element, metric, perturb, eps, deltas, ref_radius, tol, node_cap, set):
    """Probe joint continuity of the action at (element, set)."""
    g = parse_element(element)
    pairs = []
    for text in perturb:
        if ";" not in text:
            raise click.UsageError(f"--perturb needs `element ; set`, got {text!r}")
        h, _, s = text.partition(";")
        pairs.append((parse_element(h), parse_set(s, g.space)))
    report = probe_action_continuity(
        g, parse_set(set, g.space), metric, pairs, delta_schedule=_schedule(deltas),
        eps=eps, ref_radius=ref_radius, **_budget(tol, node_cap, metric))
    results = [{"name": row.label, "value": {"d_group": row.d_group.to_plain(),
                "d_set": row.d_set.to_plain(), "d_out": row.d_out.to_plain()}}
               for row in report.rows]
    results.append({"name": "violation", "value": report.violation})
    return results, report.violation


# ---------------------------------------------------------------------------
# scenario


@main.group()
def scenario():
    """Run or list the end-to-end studies."""


@_command(scenario, "list", answer="available", title="scenario list")
def scenario_list():
    return [{"name": name, "value": "available"} for name in scenarios.available()], False


@_command(scenario, "run", answer="scenario passed", title="scenario run {name}")
@click.option("--param", "params", multiple=True,
              help="override a config field, e.g. --param k_max=5 (repeatable)")
@click.argument("name")
def scenario_run(params, name):
    ctx = click.get_current_context()
    report = scenarios.run(name, seed=ctx.obj["seed"], **parse_fields(params))
    ctx.params.update(params=report.params, notes=report.notes)
    results = [{"name": "table", "value": list(report.rows)}]
    results.extend({"name": a.name, "value": a.passed, "detail": a.detail}
                   for a in report.assertions)
    results.append({"name": "scenario passed", "value": report.passed})
    return results, not report.passed


if __name__ == "__main__":
    main()
