"""The command lines whose ``--machine`` reports ``golden_reports.txt`` records.

They are the user paths the project pins: the README commands, model and
``verify-paper`` runs, and one positive verdict per witness builder.
``$DATA`` stands for the packaged data directory.  This module needs only the
standard library, so the reachability trace can run without pytest.
"""

from importlib import resources

DATA = str(resources.files("rht").joinpath("data"))

COMMANDS = {
    "readme-cohomology": ["cohomology", "$DATA/s2_model.cdga", "--through", "7"],
    "readme-bigraded": ["model", "$DATA/cp2.ring", "--bigraded",
                        "--through", "12"],
    "readme-distortion": ["distortion", "$DATA/cp2_model.cdga", "--class", "y"],
    "readme-scalable": ["scalable", "csum(4*CP2)"],
    "readme-pair": ["pair", "$DATA/wedge335_model.cdga", "--class", "z",
                    "--bracket", "[[a,c],[a,[a,b]]]", "--scale", "2"],
    "model-wedge335-seed": ["model", "$DATA/wedge335_seed.cdga", "--through", "9"],
    "model-cp2": ["model", "$DATA/cp2.ring", "--through", "12"],
    "bigraded-wedge335": ["model", "$DATA/wedge335.ring", "--bigraded",
                          "--through", "11"],
    "verify-obstruction-massey": ["verify-paper", "--only", "obstruction",
                                  "massey"],
    # one positive verdict per witness builder: sphere, symplectic power,
    # complementary pair, omega, plane sum with both signs, set family
    "scalable-sphere": ["scalable", "S3"],
    "scalable-symplectic": ["scalable", "CP3"],
    "scalable-pair": ["scalable", "HP2"],
    "scalable-omega": ["scalable", "csum(3*(S2xS2))"],
    "scalable-plane-sum": ["scalable", "csum(2*CP2,rev(CP2))"],
    "scalable-family": ["scalable", "csum(2*(S2xS4))"],
    "verify-paper": ["verify-paper"],
}

