"""The ``highorder`` and ``algebra`` passes and the scaling points.

Every check returns ``(held, digest)``: whether the identity held, and the
SHA-256 of ``serialize.dumps`` of the series, operators and certificates
it computed.  Library functions are always reached through their module
(``holonomic.apply_qdiff``), so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property

from qpart import automata, catalog, celine, colored, cylindric, holonomic, serialize, series
from qpart.laurent import RationalFunction


def _digest(*objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        h.update(serialize.dumps(obj).encode())
    return h.hexdigest()


class HighOrder:
    """Cross-route checks at q^100; the only listing stops below q^40."""

    Q = 100
    LISTED = 40

    @cached_property
    def cw(self):
        return cylindric.solve_cw_family((3, 0, 0), self.Q)

    @cached_property
    def language(self):
        system = automata.derive_transfer_system(automata.build_avoidance_dfa())
        return automata.solve_language_series(system, self.Q)

    def _sum(self, spec, other):
        lhs = holonomic.evaluate_ag_sum(spec, self.Q)
        return lhs.first_difference(other()) is None, _digest(lhs.to_json())

    def _aux(self):
        lhs = holonomic.evaluate_ag_sum(catalog.AG_AUX, self.Q).eval_x1()
        rhs = series.pochhammer_expand(catalog.PRODUCT_AUX, self.Q)
        return lhs.first_difference(rhs) is None, _digest(lhs.to_json(), rhs.to_json())

    def _product(self, profile, spec):
        euler = series.pochhammer_expand(catalog.EULER_PRODUCT, self.Q)
        lhs = cylindric.g_to_f(self.cw[profile]).eval_x1() * euler
        rhs = series.pochhammer_expand(spec, self.Q)
        return lhs.first_difference(rhs) is None, _digest(lhs.to_json(), rhs.to_json())

    def _qdiff(self, make_op, target):
        op = make_op()
        res = holonomic.apply_qdiff(op, target())
        return res.is_zero(), _digest(op.to_json(), res.to_json())

    def _listed(self, cond, component):
        listed = colored.enumerate_2colored(self.LISTED - 1, cond)
        f = colored.gen_fun(listed, self.LISTED)
        held = f.first_difference(self.language[component].truncate(self.LISTED)) is None
        held = held and all(colored.check_condition(lam, cond) for lam in listed)
        return held, _digest(f.to_json())

    def checks(self):
        d123, d1234 = (lambda: self.language[0]), (lambda: self.language[1])
        g111, g300 = (lambda: self.cw[(1, 1, 1)]), (lambda: self.cw[(3, 0, 0)])
        return [
            ("sum-d123", lambda: self._sum(catalog.AG_D123, d123)),
            ("sum-d1234", lambda: self._sum(catalog.AG_D1234, d1234)),
            ("sum-g111", lambda: self._sum(catalog.AG_G111, g111)),
            ("sum-g300", lambda: self._sum(catalog.AG_G300, g300)),
            ("sum-aux", self._aux),
            ("product-g111", lambda: self._product((1, 1, 1), catalog.PRODUCT_D123)),
            ("product-g300", lambda: self._product((3, 0, 0), catalog.PRODUCT_D1234)),
            ("qdiff-d123", lambda: self._qdiff(catalog.qdiff_operator_d123, d123)),
            ("qdiff-d1234", lambda: self._qdiff(catalog.qdiff_operator_d1234, d1234)),
            ("qdiff-g300", lambda: self._qdiff(catalog.qdiff_operator_g300, g300)),
            ("qdiff-g111", lambda: self._qdiff(catalog.qdiff_operator_g111, g111)),
            ("listed-d123", lambda: self._listed(colored.COND_D123, 0)),
            ("listed-d1234", lambda: self._listed(colored.COND_D1234, 1)),
        ]


class Algebra:
    """Certificates, Celine searches, uncoupling and the combination identity."""

    Q = 30

    def __init__(self):
        self._certs = {}

    def cert(self, name):
        if name not in self._certs:
            self._certs[name] = catalog.certificate(name)
        return self._certs[name]

    @cached_property
    def transfer(self):
        return automata.derive_transfer_system(automata.build_avoidance_dfa())

    @cached_property
    def language(self):
        return automata.solve_language_series(self.transfer, self.Q)

    def _verify(self, name):
        cert = self.cert(name)
        res = holonomic.verify_certificate(catalog.certificate_term(name), cert)
        return res.ok, _digest(serialize.certificate_to_json(cert), res.residual_terms)

    def _rederive(self, name):
        cert = self.cert(name)
        found = celine.celine_solve(catalog.certificate_term(name), cert.order, support=celine.support_of(cert))
        return found is not None, _digest(None if found is None else serialize.certificate_to_json(found))

    def _box_search(self):
        """The CLI's default box for g111 at order 3; the answer is "none found"."""
        term = catalog.certificate_term("g111")
        support = celine.default_support(3, nsum=term.nsum, kbox=(1, 1, 1), u_range=(0, 3), q_range=(-3, 3))
        found = celine.celine_solve(term, 3, support=support)
        return found is None, _digest(len(support), found is None)

    def _uncouple(self, matrix, component, target):
        op = holonomic.uncouple_system(matrix, component)
        return holonomic.apply_qdiff(op, target()).is_zero(), _digest(op.to_json())

    def _combination(self):
        """The order-4 family is a combination of the order-3 one and its shift."""
        ps = [RationalFunction.from_poly(p) for p in holonomic.recurrence_from_certificate(self.cert("g111"))]
        pps = [RationalFunction.from_poly(p) for p in catalog.pprime_family()]

        def sig(r):
            return RationalFunction(r.num.twist("u", "q", -1), r.den.twist("u", "q", -1), normalize=False)

        alpha = pps[0] / ps[0]
        beta = pps[4] / sig(ps[3])
        held = True
        for j in range(5):
            lhs = alpha * ps[j] if j < 4 else alpha * 0
            if j >= 1:
                lhs = lhs + beta * sig(ps[j - 1])
            held = held and (lhs - pps[j]).is_zero()
        return held, _digest(alpha.to_json(), beta.to_json())

    def checks(self):
        out = []
        for name in catalog.CERTIFICATE_NAMES:
            out.append((f"certificate-{name}", lambda name=name: self._verify(name)))
            out.append((f"celine-{name}", lambda name=name: self._rederive(name)))
        g300 = lambda: cylindric.solve_cw_family((3, 0, 0), self.Q)[(3, 0, 0)]  # noqa: E731
        mat5 = lambda: [list(row) for row in self.transfer.matrix]  # noqa: E731
        out += [
            ("celine-g111-box", self._box_search),
            ("uncouple-2x2", lambda: self._uncouple(catalog.coupled_g_system(), 0, g300)),
            ("uncouple-5x5-0", lambda: self._uncouple(mat5(), 0, lambda: self.language[0])),
            ("uncouple-5x5-1", lambda: self._uncouple(mat5(), 1, lambda: self.language[1])),
            ("combination-identity", self._combination),
        ]
        return out


WORKLOADS = {"highorder": HighOrder, "algebra": Algebra}


def run_checks(workload: str, seed: int) -> dict:
    """One pass; the seed only rotates which independent check goes first."""
    checks = WORKLOADS[workload]().checks()
    k = seed % len(checks)
    out = {}
    for name, check in checks[k:] + checks[:k]:
        held, digest = check()
        out[name] = {"ok": bool(held), "digest": digest}
    return out


def scaling_points() -> dict:
    """The calls behind ``child.SCALING_POINTS``, by metric name."""
    points = {
        f"cylindric.solve_cw_family.q{q}.s": (lambda q=q: cylindric.solve_cw_family((3, 0, 0), q))
        for q in (30, 60, 100)
    }
    g111 = catalog.certificate_term("g111")
    for label, q0 in (("2", Fraction(2)), ("7_5", Fraction(7, 5))):
        for n in (25, 40):
            points[f"holonomic.sequence_value.g111_n{n}.q0_{label}.s"] = (
                lambda n=n, q0=q0: holonomic.sequence_value(g111, n, q0))
    return points
