"""The two exception types: every refusal in the library raises one of them."""


class InputError(ValueError):
    """An argument the call cannot take, such as a kernel the operation is not
    defined for or a query outside the hypothesis of an identity."""


class NumericalError(ArithmeticError):
    """Arithmetic that cannot be trusted: a linear-algebra step could not be
    completed reliably."""
