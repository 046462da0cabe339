"""Dictionary learning and dictionary-regularized low-dose CT reconstruction."""

from .operators import (
    ContractError,
    Dictionary,
    ImageGrid,
    ZeroAtomError,
    dict_gradient,
    normalize_atoms,
)
from .sparse import (
    DivergenceError,
    SparseCodeConfig,
    fista_sparse_code,
    soft_threshold,
    sparse_objective,
)
from .tomo import (
    AcquisitionGeometry,
    NoiseModel,
    Sinogram,
    data_loss_and_gradient,
    fbp,
    forward_project,
    likelihood_weights,
    linearize,
    simulate_counts,
)
from .learn import (
    AdamState,
    TrainConfig,
    TrainLog,
    adam_update,
    adapt_lambda,
    remove_low_frequency,
    train_dictionary,
)
from .recon import (
    HuberConfig,
    ReconConfig,
    reconstruct_dict,
    reconstruct_dict_patch,
    reconstruct_huber,
)
from .elbo import (
    ElboReport,
    ModelParams,
    elbo_lower_bound,
    elbo_monte_carlo,
    gaussian_logpdf,
    joint_log_density,
    laplace_logpdf,
    log_evidence_quadrature,
    posterior_mode,
)
from .analytics import (
    atom_montage,
    atom_significance,
    psnr,
    random_ellipse_phantom,
    shepp_logan,
    ssim,
)
from .fileio import (
    FormatError,
    load_image,
    read_config,
    read_dictionary,
    read_grid,
    save_image,
    write_dictionary,
    write_grid,
    write_pgm16,
)

__version__ = "0.1.0"
