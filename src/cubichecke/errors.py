"""Exception types shared across the package."""


class CubicHeckeError(Exception):
    pass


class PoleOnLocus(CubicHeckeError):
    """A denominator vanishes on the specialization locus."""

    def __init__(self, what):
        super().__init__("denominator vanishes on the locus: %s" % (what,))
        self.what = what


class HypothesisViolated(CubicHeckeError):
    """A hypothesis of the block-reconstruction theorem fails symbolically."""

    def __init__(self, which):
        super().__init__("block formula hypothesis violated: %s" % (which,))
        self.which = which


class PathBasisUnavailable(CubicHeckeError):
    """Eigenvalues of the length-2 center collide inside a block on this locus."""


class GaugeInconsistent(CubicHeckeError):
    """No diagonal rescaling satisfies the braid relation."""


class UnidentifiedFactor(CubicHeckeError):
    """A composition factor matches no catalogued simple module (hard failure)."""


class IncompatibleIdeals(CubicHeckeError):
    """A pair of prime ideals forces two eigenvalues to coincide."""

    def __init__(self, witness):
        super().__init__("ideals force eigenvalue coincidence: %s" % (witness,))
        self.witness = witness
