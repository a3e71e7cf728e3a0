"""Exact-arithmetic toolkit for graded-commutative differential algebras.

Rational-coefficient free CDGAs with Koszul-signed products, degreewise
cohomology by exact elimination, Sullivan minimal models with depth
filtrations and distortion-exponent prediction, homotopy/obstruction
operators over the polynomial interval, Whitehead-bracket and Massey
pairings, and embedding tests into exterior algebras that decide
scalability for the supported space families.
"""

from .cdga import (DgaMorphism, Element, FreeCdga, Generator, Monomial,
                   TruncatedCdga)
from .cohomology import MappingCone, cohomology, is_quasi_isomorphism
from .homotopy import (DgaHomotopy, IntervalAlgebra, Leaf, MasseyResult, Node,
                       ObstructionClass, bracket_degree, extend_with_witness,
                       hopf_invariant, integrate_0_1, integrate_0_t,
                       interval_algebra, massey_triple, obstruction_class,
                       parse_bracket, scale_leaves, whitehead_pair)
from .models import (CellAttachmentModel, DistortionReport, MinimalModel,
                     attach_cell_model, bigraded_model,
                     compute_generator_depths, distortion_exponent,
                     minimal_model, u0_surjectivity)
from .presentations import (RingPresentation, projective_ring, sphere_ring,
                            wedge_of_spheres_ring)
from .scalability import (Classification, ConnectedSumRing, EmbeddingWitness,
                          SetFamily, WitnessReport, classify,
                          connected_sum_ring, decide_omega, decide_pi,
                          decide_sigma, exterior_algebra, family_local_forms,
                          intersection_complete, subset_monomial,
                          verify_witness, wedge_pairing_signature)

__version__ = "0.1.0"
