"""Exception hierarchy shared across the package, and the byte budget.

Exit-code mapping used by the CLI: ValidationError -> 1,
BudgetError / PrecisionError -> 2, InvariantViolation -> 3.
"""

# bytes that one step may hold at once (the generator columns, the
# multiplication table or a lattice grid of a stage, a batch of the product
# law, the translates of an ideal closure, a dense elimination, a Mahler
# differencing pass, a Lie bracket table), asked through `require_bytes`
# before the step allocates; with --size-budget the only limit on a stage
DENSE_BYTE_BUDGET = 1 << 30


class KernelError(Exception):
    """Base class for all package errors."""


class ValidationError(KernelError):
    """Malformed or inconsistent input (presentations, charts, specs)."""


class PrecisionError(KernelError):
    """An operation cannot be carried out at the available precision."""


class BudgetError(KernelError):
    """A configured size / degree / level budget was exceeded."""


class InvariantViolation(KernelError):
    """An internal identity that must hold failed; falsifies the build."""


def require_bytes(nbytes: int, what: str):
    """BudgetError before allocating more than DENSE_BYTE_BUDGET bytes."""
    if nbytes > DENSE_BYTE_BUDGET:
        raise BudgetError(
            f"{what} needs {nbytes / 2**30:.2f} GiB, "
            f"above the dense byte budget of {DENSE_BYTE_BUDGET / 2**30:.2f} GiB"
        )
