"""Per-layer tracer for one qosc process.

``Tracer.install()`` wraps, in place, the functions and methods named in
``SITES``.  Every wrapped call adds to its site's call count, inclusive time
and self time (inclusive time minus the time of wrapped calls beneath it),
kept on one stack.  Sites marked as spans also record one span per call
(name, start, end, parent span) in memory; hot leaf calls such as Scalar
operators and ``act`` are only aggregated, since they run millions of times.

A module-level function is rebound in every ``qosc.*`` namespace that
imported it by name (``rmatrix.act``, ``algebraops.eval_word``), so calls
through those names are counted too.  A site whose target no longer exists
is reported as absent instead of failing.

Layers are the module names of ``src/qosc``; a site's layer is the first
part of its path.
"""

import sys
import time

# (path, records spans).  "fockmod.*.apply_gen" means that method on every
# class of fockmod that defines it; "cli.cmd_*" every subcommand function.
SITES = [
    ("scalars.Scalar.__add__", False),
    ("scalars.Scalar.__sub__", False),
    ("scalars.Scalar.__neg__", False),
    ("scalars.Scalar.__mul__", False),
    ("scalars.Scalar.__truediv__", False),
    ("scalars.Scalar.__pow__", False),
    ("scalars.Scalar.inverse", False),
    ("scalars.SpectralScalar.__add__", False),
    ("scalars.SpectralScalar.__radd__", False),
    ("scalars.SpectralScalar.__sub__", False),
    ("scalars.SpectralScalar.__rsub__", False),
    ("scalars.SpectralScalar.__neg__", False),
    ("scalars.SpectralScalar.__mul__", False),
    ("scalars.SpectralScalar.__rmul__", False),
    ("scalars.SpectralScalar.__truediv__", False),
    ("scalars.SpectralScalar.__pow__", False),
    ("scalars.SpectralScalar.inverse", False),
    ("fockmod.act", False),
    ("fockmod.eval_word", False),
    ("fockmod.*.apply_gen", False),
    ("words.WordExpr.substituted", False),
    ("algebraops.check_relation_on", True),
    ("linalg.RowBasis.add", False),
    ("linalg.RowBasis.express", False),
    ("linalg.solve_unique", True),
    ("linalg.nullspace", False),
    ("rmatrix.solve_R", True),
    ("rmatrix.PairDecomposition.__init__", True),
    ("rmatrix.PairDecomposition.apply_R", False),
    ("rmatrix.fuse", True),
    ("rmatrix.cyclicity_diagnostic", True),
    ("fundrep.Subspace.add", False),
    ("decomp.hw_kernel_of_vectors", False),
    ("cli.cmd_*", True),
]

LAYERS = ["scalars", "fockmod", "words", "algebraops", "linalg", "rmatrix",
          "fundrep", "decomp", "cli"]


def rebind(orig, new, prefix="qosc"):
    """Replace ``orig`` by ``new`` under every name that holds it in a loaded
    ``qosc`` module; returns the (module, name) pairs rebound."""
    done = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                done.append((mod, attr))
    return done


class Tracer:
    def __init__(self, group=()):
        self.sites = {}  # path -> [calls, inclusive s, self s]
        self.extra = {"fockmod.terms_out": 0, "words.substituted_terms": 0,
                      "algebraops.kets_checked": 0,
                      "algebraops.relations_vacuous": 0,
                      "linalg.rowbasis_accepted": 0,
                      "linalg.solve_unique_rows": 0,
                      "linalg.solve_unique_cols": 0,
                      "rmatrix.orbit_vectors": 0,
                      "fundrep.subspace_accepted": 0,
                      "scalars.max_poly_len": 0, "scalars.max_coeff_bits": 0}
        self.absent = []
        self.spans = []
        self._stack = [[0.0]]  # frames hold the time of wrapped children
        self._cur_span = [-1]
        self._group = set(group)  # sites whose union of time is measured
        self._group_state = [0, 0.0, 0.0]  # depth, entered at, total
        self._undo = []

    # -- hooks run on results, outside the timed region ---------------------

    def _hooks(self):
        import qosc.scalars

        scalar_type = qosc.scalars.Scalar
        ex = self.extra

        def scalar_size(res, args):
            if type(res) is not scalar_type:
                return
            num, den = res.num, res.den
            n = len(num) if len(num) > len(den) else len(den)
            if n > ex["scalars.max_poly_len"]:
                ex["scalars.max_poly_len"] = n
            if num:
                b = max(max(num), -min(num), max(den), -min(den)).bit_length()
                if b > ex["scalars.max_coeff_bits"]:
                    ex["scalars.max_coeff_bits"] = b

        def act(res, args):
            ex["fockmod.terms_out"] += len(res.terms)

        def substituted(res, args):
            ex["words.substituted_terms"] += len(res.terms)

        def check_relation(res, args):
            ex["algebraops.kets_checked"] += res.checked
            ex["algebraops.relations_vacuous"] += res.checked == 0

        def rowbasis_add(res, args):
            ex["linalg.rowbasis_accepted"] += res[0] is True

        def solve_unique(res, args):
            ex["linalg.solve_unique_rows"] += len(args[0])
            ex["linalg.solve_unique_cols"] += len(args[1])

        def orbit(res, args):
            ex["rmatrix.orbit_vectors"] += sum(
                len(e) for _, e in args[0].blocks.values()
            )

        def subspace_add(res, args):
            ex["fundrep.subspace_accepted"] += bool(res)

        hooks = {p: scalar_size for p, _ in SITES if p.startswith("scalars.Scalar.")}
        hooks.update({
            "fockmod.act": act,
            "words.WordExpr.substituted": substituted,
            "algebraops.check_relation_on": check_relation,
            "linalg.RowBasis.add": rowbasis_add,
            "linalg.solve_unique": solve_unique,
            "rmatrix.PairDecomposition.__init__": orbit,
            "fundrep.Subspace.add": subspace_add,
        })
        return hooks

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, path, fn, span, hook):
        site = self.sites.setdefault(path, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter
        spans = self.spans
        cur = self._cur_span
        group = self._group_state if path in self._group else None
        label = path.split(".", 1)[1]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                parent = cur[0]
                idx = len(spans)
                spans.append([label, 0.0, 0.0, parent])
                cur[0] = idx
            if group is not None:
                group[0] += 1
            t0 = perf()
            if group is not None and group[0] == 1:
                group[1] = t0
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                site[0] += 1
                site[1] += d
                site[2] += d - frame[0]
                stack[-1][0] += d
                if span:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
                    cur[0] = parent
                if group is not None:
                    group[0] -= 1
                    if group[0] == 0:
                        group[2] += t1 - group[1]
            if hook is not None:
                hook(res, args)
                stack[-1][0] += perf() - t1
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _targets(self, path):
        """(owner, attribute) pairs for a site path; empty when absent."""
        import importlib

        modname, rest = path.split(".", 1)
        try:
            mod = importlib.import_module("qosc." + modname)
        except ImportError:
            return []
        parts = rest.split(".")
        if parts[0] == "*":  # a method on every class of the module
            return [(cls, parts[1]) for cls in vars(mod).values()
                    if isinstance(cls, type) and cls.__module__ == mod.__name__
                    and parts[1] in vars(cls)]
        if parts[0].endswith("*"):  # every module function with a prefix
            stem = parts[0][:-1]
            return [(mod, n) for n, f in vars(mod).items()
                    if n.startswith(stem) and callable(f)]
        owner = mod
        for p in parts[:-1]:
            owner = vars(owner).get(p)
            if owner is None:
                return []
        return [(owner, parts[-1])] if parts[-1] in vars(owner) else []

    def install(self):
        hooks = self._hooks()
        for path, span in SITES:
            targets = self._targets(path)
            if not targets:
                self.absent.append(path)
                continue
            for owner, attr in targets:
                orig = vars(owner)[attr]
                new = self._wrap(path, orig, span, hooks.get(path))
                if isinstance(owner, type):
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, orig))
                else:
                    for mod, name in rebind(orig, new):
                        self._undo.append((mod, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def snapshot(self, wall_s):
        return {
            "wall_s": wall_s,
            "sites": self.sites,
            "extra": self.extra,
            "absent": self.absent,
            "group_s": self._group_state[2],
            "spans": self.spans,
        }


# -- per-layer metrics from merged snapshots ---------------------------------


def merge(snapshots):
    """Sum the snapshots of several invocations (maxima for the sizes)."""
    out = {"wall_s": 0.0, "sites": {}, "extra": {}, "absent": set(),
           "group_s": 0.0}
    for snap in snapshots:
        out["wall_s"] += snap["wall_s"]
        out["group_s"] += snap["group_s"]
        out["absent"].update(snap["absent"])
        for path, (c, inc, slf) in snap["sites"].items():
            s = out["sites"].setdefault(path, [0, 0.0, 0.0])
            s[0] += c
            s[1] += inc
            s[2] += slf
        for k, v in snap["extra"].items():
            if k.startswith("scalars.max_"):
                out["extra"][k] = max(out["extra"].get(k, 0), v)
            else:
                out["extra"][k] = out["extra"].get(k, 0) + v
    return out


def layer_self(merged):
    """Self seconds per layer."""
    acc = {layer: 0.0 for layer in LAYERS}
    for path, (_, _, slf) in merged["sites"].items():
        acc[path.split(".", 1)[0]] += slf
    return acc


def metrics(merged):
    """The per-layer metrics, by name, as (value, unit)."""
    sites, ex = merged["sites"], merged["extra"]

    def calls(*paths):
        return sum(sites.get(p, (0, 0, 0))[0] for p in paths)

    def incl(*paths):
        return sum(sites.get(p, (0, 0, 0))[1] for p in paths)

    def self_s(*paths):
        return sum(sites.get(p, (0, 0, 0))[2] for p in paths)

    def ratio(num, den):
        return num / den if den else 0.0

    scalar = [p for p in sites if p.startswith("scalars.Scalar.")]
    spectral = [p for p in sites if p.startswith("scalars.SpectralScalar.")]
    rb_add = calls("linalg.RowBasis.add")
    sub_add = calls("fundrep.Subspace.add")
    m = {
        "scalars.mul_calls": (calls("scalars.Scalar.__mul__"), "count"),
        "scalars.add_calls": (calls("scalars.Scalar.__add__"), "count"),
        "scalars.div_calls": (calls("scalars.Scalar.inverse"), "count"),
        "scalars.spectral_ops": (calls(*spectral), "count"),
        "scalars.self_s": (self_s(*scalar), "s"),
        "scalars.spectral_self_s": (self_s(*spectral), "s"),
        "scalars.max_poly_len": (ex.get("scalars.max_poly_len", 0), "count"),
        "scalars.max_coeff_bits": (ex.get("scalars.max_coeff_bits", 0), "bits"),
        "fockmod.act_calls": (calls("fockmod.act"), "count"),
        "fockmod.act_self_s": (self_s("fockmod.act"), "s"),
        "fockmod.eval_word_calls": (calls("fockmod.eval_word"), "count"),
        "fockmod.eval_word_self_s": (self_s("fockmod.eval_word"), "s"),
        "fockmod.apply_gen_calls": (calls("fockmod.*.apply_gen"), "count"),
        "fockmod.terms_out": (ex.get("fockmod.terms_out", 0), "count"),
        "words.substituted_calls": (calls("words.WordExpr.substituted"), "count"),
        "words.substituted_terms": (ex.get("words.substituted_terms", 0), "count"),
        "algebraops.relations_checked": (
            calls("algebraops.check_relation_on"), "count"),
        "algebraops.kets_checked": (ex.get("algebraops.kets_checked", 0), "count"),
        "algebraops.relations_vacuous": (
            ex.get("algebraops.relations_vacuous", 0), "count"),
        "algebraops.check_self_s": (self_s("algebraops.check_relation_on"), "s"),
        "linalg.rowbasis_add_calls": (rb_add, "count"),
        "linalg.rowbasis_accept_ratio": (
            ratio(ex.get("linalg.rowbasis_accepted", 0), rb_add), "ratio"),
        "linalg.rowbasis_self_s": (
            self_s("linalg.RowBasis.add", "linalg.RowBasis.express"), "s"),
        "linalg.express_calls": (calls("linalg.RowBasis.express"), "count"),
        "linalg.solve_unique_s": (incl("linalg.solve_unique"), "s"),
        "linalg.solve_unique_rows": (ex.get("linalg.solve_unique_rows", 0), "count"),
        "linalg.solve_unique_cols": (ex.get("linalg.solve_unique_cols", 0), "count"),
        "linalg.nullspace_s": (incl("linalg.nullspace"), "s"),
        "rmatrix.solve_R_s": (incl("rmatrix.solve_R"), "s"),
        "rmatrix.orbit_build_s": (incl("rmatrix.PairDecomposition.__init__"), "s"),
        "rmatrix.orbit_vectors": (ex.get("rmatrix.orbit_vectors", 0), "count"),
        "rmatrix.apply_R_calls": (calls("rmatrix.PairDecomposition.apply_R"), "count"),
        "rmatrix.apply_R_self_s": (self_s("rmatrix.PairDecomposition.apply_R"), "s"),
        "rmatrix.fuse_s": (incl("rmatrix.fuse"), "s"),
        "rmatrix.cyclicity_s": (incl("rmatrix.cyclicity_diagnostic"), "s"),
        "fundrep.subspace_add_calls": (sub_add, "count"),
        "fundrep.subspace_accept_ratio": (
            ratio(ex.get("fundrep.subspace_accepted", 0), sub_add), "ratio"),
        "fundrep.subspace_self_s": (self_s("fundrep.Subspace.add"), "s"),
        "decomp.hw_kernel_s": (incl("decomp.hw_kernel_of_vectors"), "s"),
        "cli.self_s": (self_s("cli.cmd_*"), "s"),
    }
    wall = merged["wall_s"]
    selfs = layer_self(merged)
    for layer, s in selfs.items():
        m["share.%s" % layer] = (ratio(s, wall), "ratio")
    # Wrapper bookkeeping, hooks and code outside every site.
    m["share.other"] = (ratio(wall - sum(selfs.values()), wall), "ratio")
    return m
