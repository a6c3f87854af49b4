"""Exception hierarchy shared by all modules."""


class BFreeError(Exception):
    """Base class for all domain errors raised by this package."""


class NotCoprime(BFreeError):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"moduli at positions {i} and {j} are not coprime")


class ModulusTooSmall(BFreeError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"modulus {value} is smaller than 2")


class NotSorted(BFreeError):
    def __init__(self):
        super().__init__("moduli must be strictly increasing")


class WindowTooLarge(BFreeError):
    pass


class EmptyWord(BFreeError):
    pass


class StateSpaceTooLarge(BFreeError):
    pass


class Inadmissible(BFreeError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"word support covers all residues modulo the modulus at index {k}")


class TooManyZeros(BFreeError):
    pass


class EmptySupport(BFreeError):
    pass


class LengthMismatch(BFreeError):
    pass


class NotMinimalPeriod(BFreeError):
    pass


class BadDensityOrder(BFreeError):
    pass


class WrongWindowLength(BFreeError):
    pass


class SearchBudgetExceeded(BFreeError):
    pass


class DivisiblePrecondition(BFreeError):
    pass


class NotCoprimeToC(BFreeError):
    pass


class PrecisionExhausted(BFreeError):
    pass


class BudgetExceeded(BFreeError):
    pass


class PreconditionUnmet(BFreeError):
    pass
