//! Span-tree reconstruction and pipeline analysis.
//!
//! The obs stream is flat; structure lives in the path convention
//! (`job/<id>`, `[job/<id>/]group/<layers>`, `<group>/tile/<i>/{load,
//! compute,store}`). This module rebuilds the tree and derives what the
//! flat stream can't show directly: per-group **critical paths** (which
//! stage chain actually bounds the makespan, and where it stalls),
//! load/compute/store **lane occupancy** and overlap efficiency, and the
//! fabric **idle-gap timeline** between groups. SLO burn alerts
//! (`slo/alert`) ride along as annotations: they mark windows of the run,
//! not work, so they stay out of the makespan and the idle timeline.

use crate::event::{Span, TraceError};

/// Busy cycles per pipeline lane (summed stage durations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCycles {
    /// Cycles the load DMA lane was busy.
    pub load: u64,
    /// Cycles the compute lane was busy.
    pub compute: u64,
    /// Cycles the store DMA lane was busy.
    pub store: u64,
}

impl LaneCycles {
    /// Total busy cycles over all three lanes.
    pub fn total(&self) -> u64 {
        self.load + self.compute + self.store
    }

    /// Accumulates another lane tally.
    pub fn merge(&mut self, other: &LaneCycles) {
        self.load += other.load;
        self.compute += other.compute;
        self.store += other.store;
    }
}

/// Cycles on a group's critical path, split by what the path was doing.
///
/// The four parts sum to the group's makespan: every cycle between group
/// start and group end is on the critical chain either inside a stage or in
/// a stall (waiting for a buffer or an earlier stage on the same lane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Critical cycles inside load stages.
    pub load: u64,
    /// Critical cycles inside compute stages.
    pub compute: u64,
    /// Critical cycles inside store stages.
    pub store: u64,
    /// Critical cycles spent stalled between stages.
    pub stall: u64,
}

impl CriticalPath {
    /// Total critical-path cycles (the group makespan).
    pub fn total(&self) -> u64 {
        self.load + self.compute + self.store + self.stall
    }

    /// Accumulates another path.
    pub fn merge(&mut self, other: &CriticalPath) {
        self.load += other.load;
        self.compute += other.compute;
        self.store += other.store;
        self.stall += other.stall;
    }
}

/// One tile's stage intervals (absolute cycles; a stage the schedule
/// skipped — zero length — is `None`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStages {
    /// Load interval.
    pub load: Option<(u64, u64)>,
    /// Compute interval.
    pub compute: Option<(u64, u64)>,
    /// Store interval.
    pub store: Option<(u64, u64)>,
}

/// One executed fusion group reconstructed from its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupNode {
    /// Owning job id (`None` in single-tenant streams).
    pub job: Option<u64>,
    /// Group name: layer names joined with `+`.
    pub name: String,
    /// Group start, absolute cycles.
    pub start: u64,
    /// Group end, absolute cycles.
    pub end: u64,
    /// Per-tile stage intervals, in tile order.
    pub tiles: Vec<TileStages>,
    /// Busy cycles per lane.
    pub busy: LaneCycles,
    /// The group's critical path.
    pub critical: CriticalPath,
}

impl GroupNode {
    /// Group makespan in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }

    /// Pipeline overlap efficiency: busy lane cycles per makespan cycle.
    /// 1.0 means fully serialized; up to 3.0 when all three lanes run
    /// concurrently the whole time.
    pub fn overlap(&self) -> f64 {
        if self.end == self.start {
            return 0.0;
        }
        self.busy.total() as f64 / (self.end - self.start) as f64
    }
}

/// One job reconstructed from its retire span and its groups.
#[derive(Debug, Clone, PartialEq)]
pub struct JobNode {
    /// Job id from the span path.
    pub id: u64,
    /// Admission cycle (job span start).
    pub start: u64,
    /// Finish cycle (job span end).
    pub end: u64,
    /// Indices into [`SpanTree::groups`], in execution order.
    pub groups: Vec<usize>,
    /// Cycles inside `[start, end)` not covered by any of the job's groups.
    pub idle: u64,
}

/// One fault-recovery interval (`fault/<kind>` span): work the fabric
/// executed but lost to an injected fault and had to redo.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpan {
    /// Faulted component kind (`pe`, `spm`, `noc`, `dma`, `dram`).
    pub kind: String,
    /// Start of the lost window, absolute cycles.
    pub start: u64,
    /// End of the lost window (the fault instant), absolute cycles.
    pub end: u64,
}

/// One completed fleet request (`fleet/shard<s>/job/<idx>` span): its
/// in-service residency from first start to completion on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardJob {
    /// Shard index from the span path.
    pub shard: u64,
    /// Request index from the span path.
    pub idx: u64,
    /// First service start, absolute cycles.
    pub start: u64,
    /// Completion, absolute cycles.
    pub end: u64,
}

/// The reconstructed profile tree plus fabric-level derived timelines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Jobs sorted by id (empty for single-tenant streams).
    pub jobs: Vec<JobNode>,
    /// Groups in stream (execution) order.
    pub groups: Vec<GroupNode>,
    /// Work windows lost to injected faults, in stream order (empty without
    /// fault injection). Fleet streams contribute their per-shard
    /// `fleet/shard<s>/fault/<kind>` windows here too.
    pub faults: Vec<FaultSpan>,
    /// Completed fleet requests (`fleet/shard<s>/job/<idx>`), in stream
    /// order (empty outside fleet streams).
    pub shard_jobs: Vec<ShardJob>,
    /// Whole-shard slices of a fleet batch run (`fleet/shard<s>` spans):
    /// `(shard, start, end)`, in stream order.
    pub shard_slices: Vec<(u64, u64, u64)>,
    /// Windows that raised an SLO burn alert (`slo/alert` spans):
    /// `(start, end)`, in stream order. Annotations only — they extend
    /// neither [`Self::makespan`] nor the idle timeline.
    pub alerts: Vec<(u64, u64)>,
    /// Last cycle any span covers.
    pub makespan: u64,
    /// Maximal intervals in `[0, makespan)` where no group was executing.
    pub idle_gaps: Vec<(u64, u64)>,
    /// Total cycles in [`Self::idle_gaps`].
    pub idle_cycles: u64,
}

impl SpanTree {
    /// Builds the tree from a parsed span list. Fails (never panics) on
    /// paths outside the convention, pointing at the offending input line.
    pub fn build(spans: &[Span]) -> Result<SpanTree, TraceError> {
        let mut tree = SpanTree::default();
        // Open groups: path -> index into tree.groups, so tile spans (which
        // follow their group span in stream order) can attach.
        let mut by_path: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut job_spans: Vec<(u64, u64, u64)> = Vec::new(); // (id, start, end)

        for sp in spans {
            let segs: Vec<&str> = sp.path.split('/').collect();
            match segs.as_slice() {
                ["slo", "alert"] => {
                    tree.alerts.push((sp.start, sp.end));
                    continue;
                }
                ["job", id] => {
                    let id = parse_id(id, "job", sp)?;
                    job_spans.push((id, sp.start, sp.end));
                }
                ["job", id, "group", name] => {
                    let id = parse_id(id, "job", sp)?;
                    by_path.insert(sp.path.clone(), tree.groups.len());
                    tree.groups.push(new_group(Some(id), name, sp));
                }
                ["group", name] => {
                    by_path.insert(sp.path.clone(), tree.groups.len());
                    tree.groups.push(new_group(None, name, sp));
                }
                ["fault", kind] => {
                    tree.faults.push(FaultSpan {
                        kind: kind.to_string(),
                        start: sp.start,
                        end: sp.end,
                    });
                }
                ["fleet", shard] => {
                    let shard = parse_shard(shard, sp)?;
                    tree.shard_slices.push((shard, sp.start, sp.end));
                }
                ["fleet", shard, "job", idx] => {
                    tree.shard_jobs.push(ShardJob {
                        shard: parse_shard(shard, sp)?,
                        idx: parse_id(idx, "fleet job", sp)?,
                        start: sp.start,
                        end: sp.end,
                    });
                }
                ["fleet", shard, "fault", kind] => {
                    parse_shard(shard, sp)?;
                    tree.faults.push(FaultSpan {
                        kind: kind.to_string(),
                        start: sp.start,
                        end: sp.end,
                    });
                }
                [.., "tile", index, stage] => {
                    let prefix_len = sp.path.len() - "/tile//".len() - index.len() - stage.len();
                    let prefix = &sp.path[..prefix_len];
                    let &gi = by_path.get(prefix).ok_or_else(|| {
                        TraceError::new(
                            sp.line,
                            format!("tile span {:?} has no enclosing group", sp.path),
                        )
                    })?;
                    let index = parse_id(index, "tile", sp)? as usize;
                    let tiles = &mut tree.groups[gi].tiles;
                    if tiles.len() <= index {
                        tiles.resize(index + 1, TileStages::default());
                    }
                    let slot = match *stage {
                        "load" => &mut tiles[index].load,
                        "compute" => &mut tiles[index].compute,
                        "store" => &mut tiles[index].store,
                        other => {
                            return Err(TraceError::new(
                                sp.line,
                                format!("unknown tile stage {other:?} in span {:?}", sp.path),
                            ))
                        }
                    };
                    *slot = Some((sp.start, sp.end));
                }
                _ => {
                    return Err(TraceError::new(
                        sp.line,
                        format!("unrecognized span path {:?}", sp.path),
                    ))
                }
            }
            tree.makespan = tree.makespan.max(sp.end);
        }

        for g in &mut tree.groups {
            (g.busy, g.critical) = analyze_group(g);
        }
        tree.jobs = build_jobs(&job_spans, &tree.groups);
        (tree.idle_gaps, tree.idle_cycles) = idle_gaps(&tree.groups, tree.makespan);
        Ok(tree)
    }

    /// Total busy lane cycles over all groups.
    pub fn busy(&self) -> LaneCycles {
        let mut total = LaneCycles::default();
        for g in &self.groups {
            total.merge(&g.busy);
        }
        total
    }

    /// Total critical-path cycles over all groups.
    pub fn critical(&self) -> CriticalPath {
        let mut total = CriticalPath::default();
        for g in &self.groups {
            total.merge(&g.critical);
        }
        total
    }

    /// Total tiles over all groups.
    pub fn tiles(&self) -> usize {
        self.groups.iter().map(|g| g.tiles.len()).sum()
    }

    /// Total cycles of executed work lost to faults (sum of fault spans).
    pub fn fault_lost_cycles(&self) -> u64 {
        self.faults.iter().map(|f| f.end - f.start).sum()
    }

    /// Aggregate overlap efficiency: busy lane cycles per group-makespan
    /// cycle over the whole stream.
    pub fn overlap(&self) -> f64 {
        let span: u64 = self.groups.iter().map(GroupNode::cycles).sum();
        if span == 0 {
            return 0.0;
        }
        self.busy().total() as f64 / span as f64
    }
}

fn parse_shard(text: &str, sp: &Span) -> Result<u64, TraceError> {
    text.strip_prefix("shard")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| {
            TraceError::new(
                sp.line,
                format!("invalid fleet shard {text:?} in span {:?}", sp.path),
            )
        })
}

fn parse_id(text: &str, what: &str, sp: &Span) -> Result<u64, TraceError> {
    text.parse().map_err(|_| {
        TraceError::new(
            sp.line,
            format!("invalid {what} id {text:?} in span {:?}", sp.path),
        )
    })
}

fn new_group(job: Option<u64>, name: &str, sp: &Span) -> GroupNode {
    GroupNode {
        job,
        name: name.to_string(),
        start: sp.start,
        end: sp.end,
        tiles: Vec::new(),
        busy: LaneCycles::default(),
        critical: CriticalPath::default(),
    }
}

/// Stage kind on the critical walk.
#[derive(Clone, Copy)]
enum Kind {
    Load,
    Compute,
    Store,
}

/// Lane occupancy and critical path of one group.
///
/// The critical path is found by walking backwards from the group end: at
/// time `t`, the chain continues through the stage that finishes exactly at
/// `t` (first in tile order — deterministic); when no stage does, the gap
/// back to the latest earlier finish is a stall. The walk reaches the group
/// start because the first tile's first stage starts there; any remainder
/// (e.g. a group with no recorded stages) is counted as stall.
fn analyze_group(g: &GroupNode) -> (LaneCycles, CriticalPath) {
    let mut busy = LaneCycles::default();
    let mut stages: Vec<(Kind, u64, u64)> = Vec::new();
    for t in &g.tiles {
        if let Some((s, e)) = t.load {
            busy.load += e - s;
            stages.push((Kind::Load, s, e));
        }
        if let Some((s, e)) = t.compute {
            busy.compute += e - s;
            stages.push((Kind::Compute, s, e));
        }
        if let Some((s, e)) = t.store {
            busy.store += e - s;
            stages.push((Kind::Store, s, e));
        }
    }

    let mut crit = CriticalPath::default();
    let mut t = g.end;
    while t > g.start {
        // The stage finishing exactly at t, else the latest finish before t.
        let mut exact: Option<(Kind, u64)> = None;
        let mut latest: Option<(Kind, u64, u64)> = None;
        for &(k, s, e) in &stages {
            if e == t && exact.is_none() {
                exact = Some((k, s));
            }
            if e < t && latest.is_none_or(|(_, _, le)| e > le) {
                latest = Some((k, s, e));
            }
        }
        match (exact, latest) {
            (Some((k, s)), _) => {
                let span = t - s.max(g.start);
                match k {
                    Kind::Load => crit.load += span,
                    Kind::Compute => crit.compute += span,
                    Kind::Store => crit.store += span,
                }
                t = s.max(g.start);
            }
            (None, Some((_, _, e))) => {
                crit.stall += t - e.max(g.start);
                t = e.max(g.start);
            }
            (None, None) => {
                crit.stall += t - g.start;
                t = g.start;
            }
        }
    }
    (busy, crit)
}

fn build_jobs(job_spans: &[(u64, u64, u64)], groups: &[GroupNode]) -> Vec<JobNode> {
    let mut jobs: Vec<JobNode> = job_spans
        .iter()
        .map(|&(id, start, end)| JobNode {
            id,
            start,
            end,
            groups: Vec::new(),
            idle: 0,
        })
        .collect();
    jobs.sort_by_key(|j| j.id);
    for (gi, g) in groups.iter().enumerate() {
        if let Some(jid) = g.job {
            if let Ok(ji) = jobs.binary_search_by_key(&jid, |j| j.id) {
                jobs[ji].groups.push(gi);
            }
        }
    }
    for j in &mut jobs {
        // A job's groups execute sequentially, so idle inside the job span
        // is its duration minus the sum of its group makespans.
        let covered: u64 = j.groups.iter().map(|&gi| groups[gi].cycles()).sum();
        j.idle = (j.end - j.start).saturating_sub(covered);
    }
    jobs
}

/// Maximal uncovered intervals of `[0, makespan)` given the group spans.
fn idle_gaps(groups: &[GroupNode], makespan: u64) -> (Vec<(u64, u64)>, u64) {
    let mut intervals: Vec<(u64, u64)> = groups
        .iter()
        .filter(|g| g.end > g.start)
        .map(|g| (g.start, g.end))
        .collect();
    intervals.sort_unstable();
    let mut gaps = Vec::new();
    let mut cursor = 0u64;
    for (s, e) in intervals {
        if s > cursor {
            gaps.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if makespan > cursor {
        gaps.push((cursor, makespan));
    }
    let total = gaps.iter().map(|(s, e)| e - s).sum();
    (gaps, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, start: u64, end: u64) -> Span {
        Span {
            path: path.into(),
            start,
            end,
            line: 1,
        }
    }

    /// A serialized (single-buffered) two-tile group: every cycle is on the
    /// critical path inside a stage, no stalls, overlap 1.0.
    #[test]
    fn serialized_group_critical_path_has_no_stall() {
        let spans = vec![
            span("group/conv1", 0, 60),
            span("group/conv1/tile/0/load", 0, 10),
            span("group/conv1/tile/0/compute", 10, 25),
            span("group/conv1/tile/0/store", 25, 30),
            span("group/conv1/tile/1/load", 30, 40),
            span("group/conv1/tile/1/compute", 40, 55),
            span("group/conv1/tile/1/store", 55, 60),
        ];
        let tree = SpanTree::build(&spans).unwrap();
        let g = &tree.groups[0];
        assert_eq!(
            g.busy,
            LaneCycles {
                load: 20,
                compute: 30,
                store: 10
            }
        );
        assert_eq!(
            g.critical,
            CriticalPath {
                load: 20,
                compute: 30,
                store: 10,
                stall: 0
            }
        );
        assert_eq!(g.critical.total(), g.cycles());
        assert!((g.overlap() - 1.0).abs() < 1e-12);
    }

    /// A double-buffered compute-bound group: loads hide under compute, the
    /// critical path is load(first) + computes + store(last).
    #[test]
    fn pipelined_group_critical_path_follows_the_bottleneck_lane() {
        let spans = vec![
            span("group/conv2", 100, 160),
            span("group/conv2/tile/0/load", 100, 110),
            span("group/conv2/tile/0/compute", 110, 130),
            span("group/conv2/tile/0/store", 130, 135),
            span("group/conv2/tile/1/load", 110, 120),
            span("group/conv2/tile/1/compute", 130, 150),
            span("group/conv2/tile/1/store", 150, 155),
            span("group/conv2/tile/2/load", 120, 130),
            span("group/conv2/tile/2/compute", 150, 155),
            span("group/conv2/tile/2/store", 155, 160),
        ];
        let tree = SpanTree::build(&spans).unwrap();
        let g = &tree.groups[0];
        // Backward walk (first-in-tile-order tie-break): store2(155..160)
        // <- store1(150..155) <- compute1(130..150) <- compute0(110..130)
        // <- load0(100..110).
        assert_eq!(
            g.critical,
            CriticalPath {
                load: 10,
                compute: 40,
                store: 10,
                stall: 0
            }
        );
        assert_eq!(g.critical.total(), g.cycles());
        assert!(g.overlap() > 1.0, "pipelining must overlap lanes");
    }

    /// A gap in the chain (buffer stall) shows up as stall cycles.
    #[test]
    fn chain_gap_counts_as_stall() {
        let spans = vec![
            span("group/g", 0, 50),
            span("group/g/tile/0/load", 0, 10),
            // Compute starts 5 cycles after the load finished.
            span("group/g/tile/0/compute", 15, 40),
            span("group/g/tile/0/store", 40, 50),
        ];
        let tree = SpanTree::build(&spans).unwrap();
        let g = &tree.groups[0];
        assert_eq!(
            g.critical,
            CriticalPath {
                load: 10,
                compute: 25,
                store: 10,
                stall: 5
            }
        );
        assert_eq!(g.critical.total(), 50);
    }

    #[test]
    fn jobs_collect_their_groups_and_idle_cycles() {
        let spans = vec![
            span("job/1/group/a", 10, 30),
            span("job/1/group/a/tile/0/compute", 10, 30),
            span("job/1/group/b", 40, 50),
            span("job/1/group/b/tile/0/compute", 40, 50),
            span("job/0/group/a", 0, 25),
            span("job/0/group/a/tile/0/compute", 0, 25),
            span("job/0", 0, 25),
            span("job/1", 5, 50),
        ];
        let tree = SpanTree::build(&spans).unwrap();
        assert_eq!(tree.jobs.len(), 2);
        assert_eq!(tree.jobs[0].id, 0);
        assert_eq!(tree.jobs[0].groups.len(), 1);
        assert_eq!(tree.jobs[1].groups.len(), 2);
        // Job 1: span 45 cycles, groups cover 20 + 10.
        assert_eq!(tree.jobs[1].idle, 15);
        assert_eq!(tree.makespan, 50);
        // Fabric gap: [30, 40) only (job 0's group covers [0,25), job 1's
        // first covers [10,30)).
        assert_eq!(tree.idle_gaps, vec![(30, 40)]);
        assert_eq!(tree.idle_cycles, 10);
    }

    #[test]
    fn tile_without_group_and_bad_paths_are_errors() {
        for bad in [
            "group/a/tile/0/load", // no group span seen first
            "what/ever",
            "job/xyz",
        ] {
            let e = SpanTree::build(&[span(bad, 0, 1)]).unwrap_err();
            assert_eq!(e.line, 1, "{bad}: {e}");
        }
        let e = SpanTree::build(&[span("group/a", 0, 2), span("group/a/tile/0/think", 0, 1)])
            .unwrap_err();
        assert!(e.to_string().contains("think"), "{e}");
    }

    #[test]
    fn fault_spans_collect_without_disturbing_the_group_timeline() {
        let spans = vec![
            span("job/0", 0, 40),
            span("job/0/group/a", 0, 20),
            span("job/0/group/a/tile/0/compute", 0, 20),
            span("fault/pe", 5, 12),
            span("fault/dram", 20, 25),
            span("job/0/group/b", 20, 40),
            span("job/0/group/b/tile/0/compute", 20, 40),
        ];
        let tree = SpanTree::build(&spans).unwrap();
        assert_eq!(tree.groups.len(), 2);
        assert_eq!(tree.jobs.len(), 1);
        assert_eq!(tree.faults.len(), 2);
        assert_eq!(tree.faults[0].kind, "pe");
        assert_eq!(tree.fault_lost_cycles(), 12);
        // Fault spans do not create idle gaps or extend the makespan.
        assert_eq!(tree.makespan, 40);
        assert!(tree.idle_gaps.is_empty());
    }

    #[test]
    fn slo_alert_spans_are_annotations_not_work() {
        let spans = vec![
            span("job/0", 0, 40),
            span("job/0/group/a", 0, 20),
            span("job/0/group/a/tile/0/compute", 0, 20),
            span("job/0/group/b", 30, 40),
            span("job/0/group/b/tile/0/compute", 30, 40),
            // Alert windows overlapping the fabric gap and past the end.
            span("slo/alert", 20, 30),
            span("slo/alert", 100, 200),
        ];
        let tree = SpanTree::build(&spans).unwrap();
        assert_eq!(tree.alerts, vec![(20, 30), (100, 200)]);
        assert_eq!(tree.makespan, 40, "alerts do not extend the makespan");
        assert_eq!(tree.idle_gaps, vec![(20, 30)], "nor fill idle gaps");
        assert_eq!(tree.groups.len(), 2);
        // Other `slo/...` paths are still outside the convention.
        assert!(SpanTree::build(&[span("slo/page", 0, 1)]).is_err());
    }

    #[test]
    fn empty_stream_builds_an_empty_tree() {
        let tree = SpanTree::build(&[]).unwrap();
        assert_eq!(tree.makespan, 0);
        assert_eq!(tree.overlap(), 0.0);
        assert!(tree.idle_gaps.is_empty());
    }
}
