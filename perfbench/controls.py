"""Negative controls: deliberate faults the output gate must catch."""

from tracer import rebind


def flip_one_act_sign():
    """Wrap ``fockmod.act`` so that the first nonzero result it returns has
    the sign of one coefficient flipped."""
    import qosc.fockmod

    orig = qosc.fockmod.act
    done = []

    def act(module, gen, vec):
        out = orig(module, gen, vec)
        if not done and out.terms:
            label = next(iter(out.terms))
            out.terms[label] = -out.terms[label]
            done.append(label)
        return out

    rebind(orig, act)


def corrupt_digest(digest):
    """An expected digest that no report can have."""
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")
