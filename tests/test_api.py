import nonlocal_heat


def test_public_names():
    # one public path per job: a new export, or a second route to a result,
    # has to show up here first
    assert sorted(nonlocal_heat.__all__) == [
        "DirichletLaplacian",
        "EllipticCheck",
        "EnergyCheck",
        "EvaluationError",
        "EvolutionConfig",
        "Field",
        "FixedPointReport",
        "Grid",
        "PicardConfig",
        "Potential",
        "ProbeReport",
        "SolutionBoundsCheck",
        "SolverFailure",
        "Trajectory",
        "UniquenessThreshold",
        "VerificationReport",
        "assemble",
        "catalog",
        "dirichlet_lambda1",
        "dirichlet_lambda1_discrete",
        "evolve",
        "inner_product",
        "nemytskii",
        "norm_lp",
        "phi_map",
        "picard_solve",
        "restrict",
        "uniqueness_probe",
        "uniqueness_threshold",
        "verify_all",
    ]
    assert all(hasattr(nonlocal_heat, name) for name in nonlocal_heat.__all__)
