"""orbitlab: a desk-scale laboratory for orbit compactness of
power-bounded operators.

Modules:
  seqspace   certified vectors in c/c0 and finite vectors
  operators  diagonal and matrix operators, words, telescoping expansion
  orbits     orbit clouds and packing-number compactness diagnostics
  ergodic    Cesaro means, mean-ergodic projections and verdicts
  jdlg       reversible/stable splitting, peripheral-spectrum criteria
  gallery    counterexample operators, c0-witness ladder, ladder test
  cli        deterministic command-line front end

Values are immutable except each diagonal operator's first-block phase
cache (``phase_range``), which its orbit clouds refill, so one operator
object must not be used from two threads at once.  Separate processes (as
the CLI runs them) and separate operator objects per thread are safe.
"""

from .seqspace import (TailCertificate, SeqVector, FiniteVector, NormResult,
                       sup_norm, lin_comb, constant_one, basis_vector, from_prefix)
from .operators import (DiagonalSymbol, DiagonalOperator, MatrixOperator,
                        OperatorWord, harmonic_symbol, root_perturbed_symbol,
                        constant_symbol, power_apply, telescope_expand,
                        power_bound_estimate, read_matrix_file, write_matrix_file)
from .orbits import (OrbitCloud, CompactnessReport, orbit, difference_orbit,
                     compactness_diagnostic, difference_compactness_diagnostic,
                     cloud_diagnostic)
from .ergodic import (cesaro, mean_ergodic_projection, diagonal_mean_ergodic_verdict,
                      decomposition_check, certify_power_bounded)
from .jdlg import jdlg_split, ktz_check, half_sum, diagonal_jdlg, spectrum_report
from .gallery import (WitnessAudit, limit_one_operator,
                      root_limit_operator, one_minus_symbol_vector,
                      c0_witness, bp_test, unconditional_constant,
                      write_certificate, verify_certificate)
from . import errors

__version__ = "0.1.0"
