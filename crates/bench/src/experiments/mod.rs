//! One module per reproduced table/figure. Each exposes `run() -> String`
//! producing the report text; the `exp` binary (`exp -- tab5`, `exp -- all`)
//! emits it to stdout and `bench_results/`.

pub mod ablation;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod motivation;
pub mod sensitivity;
pub mod storage_overhead;
pub mod tab2;
pub mod tab3;
pub mod tab4;
pub mod tab5;
pub mod tab6;
pub mod tab7;
