"""Ansatz builders grouped by circuit family.

`adaptive` is imported on demand (it depends on the optimization driver,
which itself uses the core types from this package).
"""

from .core import (
    AnsatzBuild,
    ExcitationGenerator,
    InitPolicy,
    trotterize,
)
from .fixed import (
    build_kupccgsd,
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
    uccsd_singlet_generators,
)
from .layered import (
    build_brc,
    build_brc_closed_shell,
    build_hea,
    build_ldca,
    givens_network,
)

__all__ = [
    "AnsatzBuild",
    "ExcitationGenerator",
    "InitPolicy",
    "trotterize",
    "uccsd_singlet_generators",
    "build_uccsd_singlet",
    "build_uccsd0",
    "build_kupccgsd",
    "build_qucc",
    "build_hea",
    "build_ldca",
    "build_brc",
    "build_brc_closed_shell",
    "givens_network",
]
