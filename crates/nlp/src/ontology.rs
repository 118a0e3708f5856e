//! The fault-tag / failure-category ontology of Table III, grounded in
//! the STPA control structure of Fig. 3.

use std::fmt;

/// Root failure categories (Table III / Table IV columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureCategory {
    /// Faults in the machine-learning system's design — perception and
    /// planning/control algorithms.
    MlDesign,
    /// Faults in the computing system — hardware and software.
    System,
    /// Could not be categorized.
    UnknownC,
}

impl FailureCategory {
    /// All categories.
    pub const ALL: [FailureCategory; 3] = [
        FailureCategory::MlDesign,
        FailureCategory::System,
        FailureCategory::UnknownC,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            FailureCategory::MlDesign => "ML/Design",
            FailureCategory::System => "System",
            FailureCategory::UnknownC => "Unknown-C",
        }
    }
}

impl fmt::Display for FailureCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The sub-division of `ML/Design` used by Table IV: perception-side vs
/// planner/controller-side machine-learning faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MlSubsystem {
    /// Perception / recognition (interpreting sensor data, including
    /// environmental surprises — footnote 5 of the paper).
    Perception,
    /// Planning, decision, and control.
    PlannerController,
}

impl fmt::Display for MlSubsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MlSubsystem::Perception => "Perception/Recognition",
            MlSubsystem::PlannerController => "Planner/Controller",
        })
    }
}

/// The fault tags of Table III (plus `Unknown-T` for unclassifiable
/// causes and the `Incorrect Behavior Prediction` tag visible in Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultTag {
    /// Sudden change in external factors (construction zones, emergency
    /// vehicles, reckless road users, weather).
    Environment,
    /// Computer-system-related problem (e.g. processor overload).
    ComputerSystem,
    /// Failure to recognize the outside environment correctly.
    RecognitionSystem,
    /// Planner failed to anticipate another driver's behavior.
    Planner,
    /// Incorrect prediction of another road user's behavior (Fig. 6
    /// breaks this out of `Planner`).
    IncorrectBehaviorPrediction,
    /// Sensor failed to localize in time.
    Sensor,
    /// Data rate too high for the onboard network.
    Network,
    /// The AV was not designed to handle an unforeseen situation.
    DesignBug,
    /// Software problems: hangs, crashes, bugs.
    Software,
    /// The AV controller did not respond to commands (the `System` half
    /// of Table III's split `AV Controller` row).
    AvControllerUnresponsive,
    /// The AV controller made wrong decisions/predictions (the
    /// `ML/Design` half of the split row).
    AvControllerDecision,
    /// Watchdog timer error.
    HangCrash,
    /// No tag could be associated.
    UnknownT,
}

impl FaultTag {
    /// All tags.
    pub const ALL: [FaultTag; 13] = [
        FaultTag::Environment,
        FaultTag::ComputerSystem,
        FaultTag::RecognitionSystem,
        FaultTag::Planner,
        FaultTag::IncorrectBehaviorPrediction,
        FaultTag::Sensor,
        FaultTag::Network,
        FaultTag::DesignBug,
        FaultTag::Software,
        FaultTag::AvControllerUnresponsive,
        FaultTag::AvControllerDecision,
        FaultTag::HangCrash,
        FaultTag::UnknownT,
    ];

    /// The root failure category of this tag (Table III's mapping).
    ///
    /// Environmental surprises count as perception-related ML faults
    /// (footnote 5 of the paper), so `Environment` maps to `ML/Design`.
    pub fn category(self) -> FailureCategory {
        match self {
            FaultTag::Environment
            | FaultTag::RecognitionSystem
            | FaultTag::Planner
            | FaultTag::IncorrectBehaviorPrediction
            | FaultTag::DesignBug
            | FaultTag::AvControllerDecision => FailureCategory::MlDesign,
            FaultTag::ComputerSystem
            | FaultTag::Sensor
            | FaultTag::Network
            | FaultTag::Software
            | FaultTag::AvControllerUnresponsive
            | FaultTag::HangCrash => FailureCategory::System,
            FaultTag::UnknownT => FailureCategory::UnknownC,
        }
    }

    /// For `ML/Design` tags, which ML subsystem the fault localizes to
    /// (the Table IV split); `None` for `System`/`Unknown` tags.
    pub fn ml_subsystem(self) -> Option<MlSubsystem> {
        match self {
            FaultTag::Environment | FaultTag::RecognitionSystem => Some(MlSubsystem::Perception),
            FaultTag::Planner
            | FaultTag::IncorrectBehaviorPrediction
            | FaultTag::DesignBug
            | FaultTag::AvControllerDecision => Some(MlSubsystem::PlannerController),
            _ => None,
        }
    }

    /// Position in [`FaultTag::ALL`] — a dense index for per-tag arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Display name matching Fig. 6's legend.
    pub fn name(self) -> &'static str {
        match self {
            FaultTag::Environment => "Environment",
            FaultTag::ComputerSystem => "Computer System",
            FaultTag::RecognitionSystem => "Recognition System",
            FaultTag::Planner => "Planner",
            FaultTag::IncorrectBehaviorPrediction => "Incorrect Behavior Prediction",
            FaultTag::Sensor => "Sensor",
            FaultTag::Network => "Network",
            FaultTag::DesignBug => "Design Bug",
            FaultTag::Software => "Software",
            FaultTag::AvControllerUnresponsive => "AV Controller",
            FaultTag::AvControllerDecision => "AV Controller (decision)",
            FaultTag::HangCrash => "Hang/Crash",
            FaultTag::UnknownT => "Unknown-T",
        }
    }
}

impl fmt::Display for FaultTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_three_category_mapping() {
        assert_eq!(FaultTag::Environment.category(), FailureCategory::MlDesign);
        assert_eq!(FaultTag::ComputerSystem.category(), FailureCategory::System);
        assert_eq!(
            FaultTag::RecognitionSystem.category(),
            FailureCategory::MlDesign
        );
        assert_eq!(FaultTag::Planner.category(), FailureCategory::MlDesign);
        assert_eq!(FaultTag::Sensor.category(), FailureCategory::System);
        assert_eq!(FaultTag::Network.category(), FailureCategory::System);
        assert_eq!(FaultTag::DesignBug.category(), FailureCategory::MlDesign);
        assert_eq!(FaultTag::Software.category(), FailureCategory::System);
        assert_eq!(FaultTag::HangCrash.category(), FailureCategory::System);
        assert_eq!(FaultTag::UnknownT.category(), FailureCategory::UnknownC);
    }

    #[test]
    fn av_controller_split_row() {
        assert_eq!(
            FaultTag::AvControllerUnresponsive.category(),
            FailureCategory::System
        );
        assert_eq!(
            FaultTag::AvControllerDecision.category(),
            FailureCategory::MlDesign
        );
    }

    #[test]
    fn ml_subsystem_split() {
        assert_eq!(
            FaultTag::RecognitionSystem.ml_subsystem(),
            Some(MlSubsystem::Perception)
        );
        assert_eq!(
            FaultTag::Environment.ml_subsystem(),
            Some(MlSubsystem::Perception)
        );
        assert_eq!(
            FaultTag::Planner.ml_subsystem(),
            Some(MlSubsystem::PlannerController)
        );
        assert_eq!(FaultTag::Software.ml_subsystem(), None);
        assert_eq!(FaultTag::UnknownT.ml_subsystem(), None);
    }

    #[test]
    fn every_tag_has_consistent_subsystem() {
        for tag in FaultTag::ALL {
            match tag.category() {
                FailureCategory::MlDesign => assert!(
                    tag.ml_subsystem().is_some(),
                    "{tag} is ML/Design but has no subsystem"
                ),
                _ => assert!(
                    tag.ml_subsystem().is_none(),
                    "{tag} is not ML/Design but has a subsystem"
                ),
            }
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = FaultTag::ALL.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), FaultTag::ALL.len());
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, tag) in FaultTag::ALL.into_iter().enumerate() {
            assert_eq!(tag.index(), i);
        }
    }
}
