//! Per-manufacturer raw report formats.
//!
//! The DMV enforces no schema, so every manufacturer renders its
//! disengagement log differently (Table II of the paper shows four
//! examples). This module defines one [`disengagement::ReportFormat`] per
//! manufacturer — each able to *render* a uniform record into that
//! manufacturer's idiosyncratic line layout and to *parse* such a line
//! back — plus the standardized accident form ([`accident`], the DMV's
//! OL 316 is a fixed form) and the monthly mileage table ([`mileage`]).

pub mod accident;
pub mod disengagement;
pub mod document;
pub mod mileage;

pub use accident::{parse_accident_form, render_accident_form};
pub use disengagement::{format_for, ReportFormat};
pub use document::{DocumentKind, RawDocument};
pub use mileage::{parse_mileage_table, render_mileage_table, render_mileage_table_into};
