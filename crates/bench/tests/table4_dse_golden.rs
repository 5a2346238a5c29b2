//! Table IV DSE golden: the five `table4_cases()` through the F-CAD flow at
//! `DseParams::fast()`, pinned bit for bit.
//!
//! The values were recorded before the in-branch optimizer gained its
//! per-call stage-cost table and `Parallelism::for_target` its pruned loops;
//! any change to the search order, a tie-break or a floating-point
//! expression of either shows up here as a different design or score.

use fcad::{Customization, DseParams, Fcad};
use fcad_bench::table4_cases;
use fcad_nnir::models::targeted_decoder;

/// The pinned outcome of one Table IV case.
struct Golden {
    case: &'static str,
    best_fitness_bits: u64,
    min_fps_bits: u64,
    dsp: usize,
    bram: usize,
    convergence_iteration: usize,
    /// Per branch, the `(cpf, kpf, h)` of every stage of `best_config`.
    stages: &'static [&'static [(usize, usize, usize)]],
}

const GOLDEN: [Golden; 5] = [
    Golden {
        case: "Case 1: Z7045 (8-bit)",
        best_fitness_bits: 0x4062dd066e918245,
        min_fps_bits: 0x40428b2dae62df89,
        dsp: 891,
        bram: 815,
        convergence_iteration: 5,
        stages: &[
            &[
                (1, 16, 1),
                (5, 4, 3),
                (7, 4, 3),
                (1, 32, 3),
                (1, 24, 3),
                (2, 1, 13),
            ],
            &[
                (1, 16, 1),
                (1, 32, 3),
                (1, 8, 5),
                (5, 8, 3),
                (1, 12, 9),
                (9, 2, 7),
                (1, 16, 7),
                (4, 3, 7),
            ],
            &[(6, 2, 1)],
        ],
    },
    Golden {
        case: "Case 2: ZU17EG (8-bit)",
        best_fitness_bits: 0x4071b38489fa823f,
        min_fps_bits: 0x4054dde15e15e15e,
        dsp: 1569,
        bram: 951,
        convergence_iteration: 4,
        stages: &[
            &[
                (1, 2, 1),
                (5, 16, 1),
                (1, 128, 1),
                (1, 16, 10),
                (1, 8, 15),
                (4, 1, 5),
            ],
            &[
                (1, 4, 1),
                (7, 16, 1),
                (1, 80, 1),
                (16, 8, 1),
                (1, 18, 13),
                (1, 32, 9),
                (16, 16, 1),
                (4, 1, 47),
            ],
            &[(12, 2, 1)],
        ],
    },
    Golden {
        case: "Case 3: ZU17EG (16-bit)",
        best_fitness_bits: 0x40587615cd91149b,
        min_fps_bits: 0x402d23da1882d4c8,
        dsp: 1568,
        bram: 1542,
        convergence_iteration: 4,
        stages: &[
            &[
                (1, 1, 1),
                (5, 1, 3),
                (1, 4, 5),
                (1, 2, 11),
                (1, 2, 9),
                (2, 3, 1),
            ],
            &[
                (1, 16, 1),
                (1, 64, 1),
                (1, 16, 3),
                (1, 26, 3),
                (13, 1, 11),
                (1, 16, 11),
                (1, 8, 19),
                (8, 1, 7),
            ],
            &[(1, 2, 5)],
        ],
    },
    Golden {
        case: "Case 4: ZU9CG (8-bit)",
        best_fitness_bits: 0x407c87d9c8999161,
        min_fps_bits: 0x40604d57ffab6277,
        dsp: 2502,
        bram: 971,
        convergence_iteration: 5,
        stages: &[
            &[
                (1, 8, 1),
                (5, 56, 1),
                (7, 32, 1),
                (4, 64, 1),
                (4, 8, 6),
                (2, 3, 12),
            ],
            &[
                (1, 64, 1),
                (1, 64, 3),
                (4, 32, 1),
                (5, 8, 5),
                (1, 72, 5),
                (2, 32, 7),
                (1, 16, 25),
                (4, 1, 37),
            ],
            &[(9, 1, 5)],
        ],
    },
    Golden {
        case: "Case 5: ZU9CG (16-bit)",
        best_fitness_bits: 0x40677bc946f41668,
        min_fps_bits: 0x404a7daeed5973af,
        dsp: 2508,
        bram: 1574,
        convergence_iteration: 3,
        stages: &[
            &[
                (1, 8, 1),
                (1, 16, 3),
                (1, 16, 5),
                (1, 16, 5),
                (1, 12, 5),
                (2, 1, 11),
            ],
            &[
                (1, 8, 1),
                (7, 4, 3),
                (1, 8, 7),
                (1, 8, 11),
                (1, 18, 9),
                (4, 32, 3),
                (1, 8, 22),
                (2, 3, 21),
            ],
            &[(3, 1, 7)],
        ],
    },
];

#[test]
fn table4_fast_dse_designs_are_pinned() {
    let cases = table4_cases();
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, platform, precision), golden) in cases.into_iter().zip(&GOLDEN) {
        assert_eq!(name, golden.case);
        let dse = Fcad::new(targeted_decoder(), platform)
            .with_customization(Customization::codec_avatar(precision))
            .with_dse_params(DseParams::fast())
            .run()
            .expect("every Table IV case has a feasible design")
            .dse;
        let stages: Vec<Vec<(usize, usize, usize)>> = dse
            .best_config
            .branches
            .iter()
            .map(|branch| {
                branch
                    .stages
                    .iter()
                    .map(|s| (s.parallelism.cpf, s.parallelism.kpf, s.parallelism.h))
                    .collect()
            })
            .collect();
        assert_eq!(stages, golden.stages, "{name}: per-stage parallelism");
        assert_eq!(
            dse.best_fitness.to_bits(),
            golden.best_fitness_bits,
            "{name}: best fitness {}",
            dse.best_fitness
        );
        assert_eq!(
            dse.min_fps().to_bits(),
            golden.min_fps_bits,
            "{name}: min fps {}",
            dse.min_fps()
        );
        assert_eq!(dse.best_report.total_usage.dsp, golden.dsp, "{name}: DSPs");
        assert_eq!(
            dse.best_report.total_usage.bram, golden.bram,
            "{name}: BRAMs"
        );
        assert_eq!(
            dse.convergence_iteration, golden.convergence_iteration,
            "{name}: convergence iteration"
        );
    }
}
