"""Test helpers for reading jets."""


def partials(jet, alpha):
    """The raw partial of ``jet`` for the multi-index tuple ``alpha``."""
    if sum(alpha) > jet.order:
        raise ValueError("partial order exceeds jet validity")
    return jet.c[..., jet.space.index[tuple(alpha)]]
