"""The name of the one kernel backend.  The kernels are pure Python, in
`reflfact._kernels_pure`."""


def default_backend_name() -> str:
    """Always "pure": there is no other backend."""
    return "pure"
