//! One function per paper table/figure. Every function is pure relative to
//! its fixed seed and returns the rendered experiment output.

mod architecture;
mod comparison;
mod disagg;
mod motivation;
mod serving;
mod trace;

pub use architecture::{fig19, fig20, fig21, fig22, tab3};
pub use comparison::{fig17, fig23, fig24a, fig24b, fig25, fig26, tab1, tab4};
pub use disagg::serving_disagg;
pub use motivation::{fig18, fig1a, fig4, fig5ab, fig5cd, fig5fg, fig8b, fig8c, tab2};
pub use serving::{
    serving, serving_capacity, serving_fleet, serving_hetero, serving_mixed, serving_models,
    serving_slo,
};
pub use trace::serving_trace;

/// All experiment ids in paper order.
#[must_use]
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "fig1a",
        "fig4",
        "fig5ab",
        "fig5cd",
        "fig5fg",
        "fig8b",
        "fig8c",
        "tab1",
        "tab2",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "tab3",
        "fig22",
        "fig23",
        "tab4",
        "fig24a",
        "fig24b",
        "fig25",
        "fig26",
        "serving",
        "serving_capacity",
        "serving_slo",
        "serving_fleet",
        "serving_mixed",
        "serving_hetero",
        "serving_models",
        "serving_trace",
        "serving_disagg",
    ]
}

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error message for unknown ids.
pub fn run(id: &str) -> Result<String, String> {
    match id {
        "fig1a" => Ok(fig1a()),
        "fig4" => Ok(fig4()),
        "fig5ab" => Ok(fig5ab()),
        "fig5cd" => Ok(fig5cd()),
        "fig5fg" => Ok(fig5fg()),
        "fig8b" => Ok(fig8b()),
        "fig8c" => Ok(fig8c()),
        "tab1" => Ok(tab1()),
        "tab2" => Ok(tab2()),
        "fig17" => Ok(fig17()),
        "fig18" => Ok(fig18()),
        "fig19" => Ok(fig19()),
        "fig20" => Ok(fig20()),
        "fig21" => Ok(fig21()),
        "tab3" => Ok(tab3()),
        "fig22" => Ok(fig22()),
        "fig23" => Ok(fig23()),
        "tab4" => Ok(tab4()),
        "fig24a" => Ok(fig24a()),
        "fig24b" => Ok(fig24b()),
        "fig25" => Ok(fig25()),
        "fig26" => Ok(fig26()),
        "serving" => Ok(serving()),
        "serving_capacity" => Ok(serving_capacity()),
        "serving_slo" => Ok(serving_slo()),
        "serving_fleet" => Ok(serving_fleet()),
        "serving_mixed" => Ok(serving_mixed()),
        "serving_hetero" => Ok(serving_hetero()),
        "serving_models" => Ok(serving_models()),
        "serving_trace" => Ok(serving_trace()),
        "serving_disagg" => Ok(serving_disagg()),
        other => Err(format!("unknown experiment id: {other}")),
    }
}
