//! Network topology and data-transfer simulation.
//!
//! The paper's testbed (Figure 2) mixes shared 10 Mbit/s Ethernet
//! segments, a non-dedicated FDDI ring, and a PCL↔SDSC gateway. What
//! matters to the application is (a) which hosts share a medium, so that
//! concurrent border exchanges contend with each other, and (b) how much
//! of each medium's capacity background traffic has already consumed.
//!
//! We model every shared medium as a [`Link`] with a capacity, a latency
//! and a background-load availability process. Hosts attach to
//! *segments* (links designated as attachment points); a route between
//! two hosts is the sequence of links a message crosses. Transfers are
//! simulated with a fluid-flow model: at any instant, each link divides
//! its currently-available capacity equally among the flows crossing it,
//! and a flow progresses at the minimum share along its route. Rates are
//! recomputed whenever a flow starts, a flow finishes, or a link's
//! availability changes, so the simulation is exact for piecewise-
//! constant availability.

use crate::error::SimError;
use crate::host::{Host, HostId, HostSpec};
use crate::load::{LoadModel, StepSeries};
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Identifier of a link (shared medium) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// Identifier of a segment (a link hosts may attach to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

/// Static description of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable name, e.g. `"pcl-ethernet-a"`.
    pub name: String,
    /// Capacity in MB/s (megabytes per second).
    pub bandwidth_mbps: f64,
    /// One-way latency.
    pub latency: SimTime,
    /// Background traffic model; availability scales usable capacity.
    pub load: LoadModel,
}

impl LinkSpec {
    /// A dedicated link with full capacity.
    pub fn dedicated(name: &str, bandwidth_mbps: f64, latency: SimTime) -> Self {
        LinkSpec {
            name: name.to_string(),
            bandwidth_mbps,
            latency,
            load: LoadModel::Constant(1.0),
        }
    }

    /// A shared link with the given background-load model.
    pub fn shared(name: &str, bandwidth_mbps: f64, latency: SimTime, load: LoadModel) -> Self {
        LinkSpec {
            name: name.to_string(),
            bandwidth_mbps,
            latency,
            load,
        }
    }

    /// Validate the spec.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.bandwidth_mbps <= 0.0 {
            return Err(SimError::NonPositive {
                what: "link bandwidth",
                value: self.bandwidth_mbps,
            });
        }
        Ok(())
    }
}

/// A link instantiated in a simulation.
#[derive(Debug, Clone)]
pub struct Link {
    /// Identifier within the topology.
    pub id: LinkId,
    /// Static description.
    pub spec: LinkSpec,
    avail: StepSeries,
}

impl Link {
    /// The realized availability process for background traffic.
    pub fn availability(&self) -> &StepSeries {
        &self.avail
    }

    /// Override the availability process (tests / pinned replays).
    pub fn set_availability(&mut self, avail: StepSeries) {
        self.avail = avail;
    }

    /// The availability process, for in-place write-back of imposed
    /// load and faults ([`StepSeries::impose`]).
    pub fn availability_mut(&mut self) -> &mut StepSeries {
        &mut self.avail
    }

    /// Capacity usable by the application at time `t`, in MB/s.
    pub fn capacity_at(&self, t: SimTime) -> f64 {
        self.spec.bandwidth_mbps * self.avail.value_at(t)
    }
}

/// Routing between segments: the ordered list of links a message
/// traverses between two *distinct* segments, excluding the endpoint
/// segments themselves (those are always included automatically).
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    via: BTreeMap<(usize, usize), Vec<LinkId>>,
}

impl RouteTable {
    /// Register a route between two *distinct* segments through
    /// intermediate links. The reverse direction is registered
    /// automatically.
    ///
    /// Rejects self-routes ([`SimError::SelfRoute`]) — same-segment
    /// traffic always crosses exactly the segment's own link — and
    /// re-registration in either direction
    /// ([`SimError::DuplicateRoute`]): both were historically accepted
    /// silently, letting one builder call shadow another's routing
    /// without any diagnostic.
    pub fn add(&mut self, a: SegmentId, b: SegmentId, via: Vec<LinkId>) -> Result<(), SimError> {
        if a == b {
            return Err(SimError::SelfRoute { segment: a.0 });
        }
        if self.via.contains_key(&(a.0, b.0)) || self.via.contains_key(&(b.0, a.0)) {
            return Err(SimError::DuplicateRoute { a: a.0, b: b.0 });
        }
        let mut rev = via.clone();
        rev.reverse();
        self.via.insert((a.0, b.0), via);
        self.via.insert((b.0, a.0), rev);
        Ok(())
    }

    /// Intermediate links between two segments, if registered.
    pub fn via(&self, a: SegmentId, b: SegmentId) -> Option<&[LinkId]> {
        self.via.get(&(a.0, b.0)).map(|v| v.as_slice())
    }

    /// Number of registered directed entries.
    pub fn len(&self) -> usize {
        self.via.len()
    }

    /// True when no routes are registered.
    pub fn is_empty(&self) -> bool {
        self.via.is_empty()
    }
}

/// A contiguous span of the route index's arena plus the precomputed
/// sum of its links' latencies (`None` when the route names a link
/// outside the topology; latency queries then fall back to the
/// erroring per-link walk).
#[derive(Debug, Clone, Copy)]
struct RouteSpan {
    off: u32,
    len: u32,
    lat: Option<SimTime>,
}

impl RouteSpan {
    /// The same-host route: no link, no latency.
    const EMPTY: RouteSpan = RouteSpan {
        off: 0,
        len: 0,
        lat: Some(SimTime::ZERO),
    };
}

/// Segment-pair routing built once at instantiation: a row-major
/// `segments x segments` table whose entries are spans of one arena,
/// each holding a *whole* route — source segment link, via links,
/// destination segment link. The diagonal holds the same-segment routes
/// (the segment's own link); unreachable pairs are `None`. Every route
/// lookup is one index read and returns a borrowed slice.
#[derive(Debug, Clone)]
struct RouteIndex {
    arena: Vec<LinkId>,
    pairs: Vec<Option<RouteSpan>>,
}

impl RouteIndex {
    fn build(routes: &RouteTable, segments: &[LinkId], links: &[LinkSpec]) -> RouteIndex {
        let n = segments.len();
        // The table's keys ascend in row-major pair order, so one merge
        // walk finds every pair's via route without a lookup.
        let table = || routes.via.iter().filter(|(&(a, b), _)| a < n && b < n);
        let mut arena = Vec::with_capacity(n + table().map(|(_, v)| v.len() + 2).sum::<usize>());
        let mut pairs = Vec::with_capacity(n * n);
        let mut vias = table().peekable();
        for (a, &la) in segments.iter().enumerate() {
            for (b, &lb) in segments.iter().enumerate() {
                let off = arena.len();
                if a == b {
                    arena.push(la);
                } else if let Some((_, via)) = vias.next_if(|(&pair, _)| pair == (a, b)) {
                    arena.push(la);
                    arena.extend_from_slice(via);
                    arena.push(lb);
                } else {
                    pairs.push(None);
                    continue;
                }
                let lat = arena[off..].iter().try_fold(SimTime::ZERO, |acc, l| {
                    links.get(l.0).map(|spec| acc + spec.latency)
                });
                pairs.push(Some(RouteSpan {
                    off: off as u32,
                    len: (arena.len() - off) as u32,
                    lat,
                }));
            }
        }
        RouteIndex { arena, pairs }
    }

    fn slice(&self, span: RouteSpan) -> &[LinkId] {
        &self.arena[span.off as usize..(span.off + span.len) as usize]
    }
}

/// Builder for a [`Topology`]: collect specs, then instantiate with a
/// horizon and seed to realize all load processes.
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    links: Vec<LinkSpec>,
    segments: Vec<LinkId>,
    hosts: Vec<HostSpec>,
    routes: RouteTable,
    /// Inter-segment connections for automatic routing:
    /// `(segment, segment, connecting link)`.
    edges: Vec<(SegmentId, SegmentId, LinkId)>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a bare link (gateway, WAN hop) that is not an attachment point.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(spec);
        id
    }

    /// Add a segment: a link that hosts can attach to.
    pub fn add_segment(&mut self, spec: LinkSpec) -> SegmentId {
        let link = self.add_link(spec);
        let id = SegmentId(self.segments.len());
        self.segments.push(link);
        id
    }

    /// Add a host attached to a previously created segment.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = HostId(self.hosts.len());
        self.hosts.push(spec);
        id
    }

    /// Register intermediate links between two distinct segments.
    /// Rejects self-routes and duplicate registrations (see
    /// [`RouteTable::add`]).
    pub fn add_route(
        &mut self,
        a: SegmentId,
        b: SegmentId,
        via: Vec<LinkId>,
    ) -> Result<(), SimError> {
        self.routes.add(a, b, via)
    }

    /// Declare a connecting link between two segments and let the
    /// builder derive multi-hop routes automatically (fewest-hops BFS,
    /// run at [`TopologyBuilder::instantiate`]). Explicitly registered
    /// routes always win over derived ones.
    pub fn connect(&mut self, a: SegmentId, b: SegmentId, spec: LinkSpec) -> LinkId {
        let link = self.add_link(spec);
        self.edges.push((a, b, link));
        link
    }

    /// Derive fewest-hop routes for every segment pair reachable over
    /// declared [`TopologyBuilder::connect`] edges that has no explicit
    /// route yet.
    fn derive_routes(&mut self) -> Result<(), SimError> {
        use std::collections::VecDeque;
        let n = self.segments.len();
        // Adjacency over segments.
        let mut adj: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); n];
        for &(a, b, l) in &self.edges {
            if a.0 < n && b.0 < n {
                adj[a.0].push((b.0, l));
                adj[b.0].push((a.0, l));
            }
        }
        for src in 0..n {
            // BFS from src.
            let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[src] = true;
            let mut q = VecDeque::from([src]);
            while let Some(u) = q.pop_front() {
                for &(v, l) in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        prev[v] = Some((u, l));
                        q.push_back(v);
                    }
                }
            }
            for (dst, &reached) in seen.iter().enumerate() {
                if dst == src
                    || !reached
                    || self.routes.via(SegmentId(src), SegmentId(dst)).is_some()
                {
                    continue;
                }
                // Reconstruct the link path dst -> src, then reverse.
                // `seen[dst]` implies an unbroken predecessor chain; if
                // that ever fails to hold, skip the pair (route() will
                // report NoRoute) rather than aborting the build.
                let mut via = Vec::new();
                let mut cur = dst;
                let mut complete = true;
                while cur != src {
                    match prev[cur] {
                        Some((p, l)) => {
                            via.push(l);
                            cur = p;
                        }
                        None => {
                            complete = false;
                            break;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                via.reverse();
                self.routes.add(SegmentId(src), SegmentId(dst), via)?;
            }
        }
        Ok(())
    }

    /// Realize every load model, up to the cap `horizon`, and produce an
    /// immutable topology. Realization is lazy (see
    /// [`LoadModel::realize`]): each series extends only as far as reads
    /// and writes reach.
    ///
    /// Per-entity seeds are derived from `seed` so that each host and
    /// link gets an independent but reproducible availability process.
    pub fn instantiate(mut self, horizon: SimTime, seed: u64) -> Result<Topology, SimError> {
        self.derive_routes()?;
        let index = RouteIndex::build(&self.routes, &self.segments, &self.links);
        let mut links = Vec::with_capacity(self.links.len());
        for (i, spec) in self.links.into_iter().enumerate() {
            spec.validate()?;
            let avail = spec.load.realize(
                horizon,
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(i as u64 + 1),
            );
            links.push(Link {
                id: LinkId(i),
                spec,
                avail,
            });
        }
        let mut hosts = Vec::with_capacity(self.hosts.len());
        for (i, spec) in self.hosts.into_iter().enumerate() {
            if spec.segment.0 >= self.segments.len() {
                return Err(SimError::UnknownSegment(spec.segment.0));
            }
            let h = Host::instantiate(
                HostId(i),
                spec,
                horizon,
                seed.wrapping_add(0xD1B5_4A32_D192_ED03)
                    .wrapping_mul(i as u64 + 1),
            )?;
            hosts.push(h);
        }
        Ok(Topology {
            links,
            segments: self.segments,
            hosts,
            routes: self.routes,
            index,
            horizon,
        })
    }
}

/// An instantiated metacomputing system: hosts, links and routes, with
/// all availability processes realized.
#[derive(Debug, Clone)]
pub struct Topology {
    links: Vec<Link>,
    segments: Vec<LinkId>,
    hosts: Vec<Host>,
    routes: RouteTable,
    index: RouteIndex,
    horizon: SimTime,
}

impl Topology {
    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The cap the availability processes are realized up to; each is
    /// realized lazily, only as far as it has been read.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> Result<&Host, SimError> {
        self.hosts.get(id.0).ok_or(SimError::UnknownHost(id.0))
    }

    /// Mutable host access (tests / pinned replays).
    pub fn host_mut(&mut self, id: HostId) -> Result<&mut Host, SimError> {
        self.hosts.get_mut(id.0).ok_or(SimError::UnknownHost(id.0))
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> Result<&Link, SimError> {
        self.links.get(id.0).ok_or(SimError::UnknownLink(id.0))
    }

    /// Mutable link access (tests / pinned replays).
    pub fn link_mut(&mut self, id: LinkId) -> Result<&mut Link, SimError> {
        self.links.get_mut(id.0).ok_or(SimError::UnknownLink(id.0))
    }

    /// The link implementing a segment.
    pub fn segment_link(&self, seg: SegmentId) -> Result<LinkId, SimError> {
        self.segments
            .get(seg.0)
            .copied()
            .ok_or(SimError::UnknownSegment(seg.0))
    }

    /// Number of segments in the topology.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The route index's entry for a segment pair; `None` when the pair
    /// is unreachable.
    fn segment_span(&self, a: SegmentId, b: SegmentId) -> Result<Option<RouteSpan>, SimError> {
        let n = self.segments.len();
        for s in [a, b] {
            if s.0 >= n {
                return Err(SimError::UnknownSegment(s.0));
            }
        }
        Ok(self.index.pairs[a.0 * n + b.0])
    }

    /// The route index's entry for a host pair.
    fn host_span(&self, from: HostId, to: HostId) -> Result<RouteSpan, SimError> {
        if from == to {
            return Ok(RouteSpan::EMPTY);
        }
        let sa = self.host(from)?.spec.segment;
        let sb = self.host(to)?.spec.segment;
        self.segment_span(sa, sb)?.ok_or(SimError::NoRoute {
            from: from.0,
            to: to.0,
        })
    }

    /// Full route (ordered links) between two hosts, borrowed from the
    /// instantiation-time route index: one table read, no allocation.
    /// Same-host routes are empty; same-segment routes cross only the
    /// segment link.
    pub fn route(&self, from: HostId, to: HostId) -> Result<&[LinkId], SimError> {
        Ok(self.index.slice(self.host_span(from, to)?))
    }

    /// [`Topology::route`] resolved through the explicit/derived route
    /// *table* — the pre-index lookup path, kept as the differential-
    /// testing oracle for the index.
    pub fn route_uncached(&self, from: HostId, to: HostId) -> Result<Vec<LinkId>, SimError> {
        if from == to {
            return Ok(Vec::new());
        }
        let sa = self.host(from)?.spec.segment;
        let sb = self.host(to)?.spec.segment;
        let la = self.segment_link(sa)?;
        if sa == sb {
            return Ok(vec![la]);
        }
        let lb = self.segment_link(sb)?;
        let via = self.routes.via(sa, sb).ok_or(SimError::NoRoute {
            from: from.0,
            to: to.0,
        })?;
        let mut path = Vec::with_capacity(via.len() + 2);
        path.push(la);
        path.extend_from_slice(via);
        path.push(lb);
        Ok(path)
    }

    /// Full route between two segments (their own links included), or
    /// `Ok(None)` when the pair is unreachable. `validate` uses this for
    /// O(segments^2) reachability instead of a lookup per host pair.
    pub fn segment_route(&self, a: SegmentId, b: SegmentId) -> Result<Option<&[LinkId]>, SimError> {
        Ok(self.segment_span(a, b)?.map(|span| self.index.slice(span)))
    }

    /// Total one-way latency along the route between two hosts: the
    /// route index's precomputed sum.
    pub fn route_latency(&self, from: HostId, to: HostId) -> Result<SimTime, SimError> {
        let span = self.host_span(from, to)?;
        match span.lat {
            Some(lat) => Ok(lat),
            // The route names a link outside the topology: walk it link
            // by link, which reports UnknownLink.
            None => self
                .index
                .slice(span)
                .iter()
                .try_fold(
                    SimTime::ZERO,
                    |acc, &l| Ok(acc + self.link(l)?.spec.latency),
                ),
        }
    }

    /// Contention-free estimate of the time to move `mb` megabytes from
    /// `from` to `to` starting at `at`: route latency plus transfer at
    /// the bottleneck link's *current* usable capacity. This is the
    /// closed-form model a scheduler's Performance Estimator uses; the
    /// fluid-flow simulator is the ground truth it is judged against.
    /// Walks the borrowed [`Topology::route`], so per-chunk calls in
    /// executor hot loops do not allocate.
    pub fn transfer_estimate(
        &self,
        from: HostId,
        to: HostId,
        mb: f64,
        at: SimTime,
    ) -> Result<SimTime, SimError> {
        let route = self.route(from, to)?;
        if route.is_empty() {
            return Ok(SimTime::ZERO);
        }
        let mut latency = SimTime::ZERO;
        let mut bottleneck = f64::INFINITY;
        for &l in route {
            let link = self.link(l)?;
            latency += link.spec.latency;
            bottleneck = bottleneck.min(link.capacity_at(at));
        }
        if bottleneck <= 0.0 {
            return Err(SimError::NeverCompletes { work: mb });
        }
        Ok(latency + SimTime::from_secs_f64(mb / bottleneck))
    }
}

/// A single data transfer to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReq {
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Payload size in MB.
    pub mb: f64,
    /// Time the transfer is initiated.
    pub start: SimTime,
    /// Caller-defined tag for correlating results.
    pub tag: usize,
}

/// Completion record for a simulated transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferResult {
    /// The request's tag.
    pub tag: usize,
    /// Time the last byte is delivered (including route latency).
    pub delivered: SimTime,
}

#[derive(Clone)]
struct ActiveFlow<'t> {
    tag: usize,
    route: &'t [LinkId],
    remaining_mb: f64,
    latency: SimTime,
}

/// Per-flow state for the incremental (dirty-set) engine. `remaining_mb`
/// is *lazy*: it is settled to the current time only when the flow's
/// rate actually changes, so untouched flows cost nothing per event.
/// The route is borrowed from the topology's route index. Until the
/// flow is admitted, `last_update` is its start.
struct FlowState<'t> {
    req_idx: usize,
    route: &'t [LinkId],
    remaining_mb: f64,
    rate: f64,
    last_update: SimTime,
    latency: SimTime,
    done_ev: Option<simcore::EventId>,
}

/// Events of the incremental transfer engine. Arrivals are not events:
/// the engine admits them from a cursor over its start-sorted flow table.
#[derive(Clone, Copy)]
enum NetEv {
    /// A flow's scheduled completion (index into the flow table).
    Finish(usize),
    /// A link's availability steps to a new value (link index).
    Avail(usize),
}

/// Simulate a batch of transfers through the topology with full
/// bandwidth contention. Returns one result per request, in request
/// order. Same-host transfers complete instantly at their start time.
///
/// Emits [`TraceEvent::TransferStart`] into `sink` when a flow is
/// admitted to the network and [`TraceEvent::TransferFinish`] (with its
/// achieved-over-nominal contention share) when it is delivered.
/// Same-host and zero-size transfers never touch the network and emit
/// nothing.
///
/// [`TraceEvent::TransferStart`]: crate::simtrace::TraceEvent::TransferStart
/// [`TraceEvent::TransferFinish`]: crate::simtrace::TraceEvent::TransferFinish
pub fn simulate_transfers(
    topo: &Topology,
    reqs: &[TransferReq],
    sink: &mut dyn crate::simtrace::EventSink,
) -> Result<Vec<TransferResult>, SimError> {
    simulate_transfers_counting(topo, reqs, sink).map(|(results, _)| results)
}

/// The incremental fluid-flow engine: [`simulate_transfers`]
/// plus a count of processed simulation events, the numerator of the
/// events/sec benchmark. Both engines count the same metric — flow
/// arrivals, flow completions, and availability change points on links
/// carrying at least one flow just before the change — so their counts
/// agree up to timestamp-coincidence rounding (see
/// [`simulate_transfers_reference`]).
///
/// Instead of recomputing every flow's share at every event (the
/// [`simulate_transfers_reference`] baseline), this engine keeps a
/// per-link table of crossing flows and an indexed, cancellable event
/// queue ([`simcore::EventQueue`]) holding only flow completions and
/// the armed availability changes of loaded links: each event marks the
/// links it touches dirty, and only flows crossing a dirty link get
/// their progress settled, their share recomputed, and their completion
/// event rescheduled. Arrivals never enter the queue; they are admitted
/// from a cursor over the flow table, which is sorted by `(start,
/// request index)`. Flows borrow their routes from the topology's route
/// index, and each dirty link's equal share is computed once per
/// timestamp and cached, so a flow's rate is the min over its hops'
/// cached shares. Per-event cost is O(affected · log n), not O(flows).
///
/// Determinism: events at one timestamp are processed finishes →
/// availability changes → arrivals (each sub-sorted by index), mirroring
/// the reference loop's retire-before-admit order, and dirty-set drains
/// are sorted, so identical inputs give identical traces.
pub fn simulate_transfers_counting(
    topo: &Topology,
    reqs: &[TransferReq],
    sink: &mut dyn crate::simtrace::EventSink,
) -> Result<(Vec<TransferResult>, u64), SimError> {
    use crate::simtrace::TraceEvent;
    use simcore::{DirtySet, EventQueue};
    const EPS_MB: f64 = 1e-12;

    // Trivial local transfers resolve at their start; the engine
    // overwrites the others' delivery time as they finish.
    let mut results: Vec<TransferResult> = reqs
        .iter()
        .map(|r| TransferResult {
            tag: r.tag,
            delivered: r.start,
        })
        .collect();

    // The flow table: the requests that cross the network, in admission
    // order (earliest start first, then request order).
    let mut flows: Vec<FlowState<'_>> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let route = topo.route(r.from, r.to)?;
        if !route.is_empty() && r.mb > 0.0 {
            flows.push(FlowState {
                req_idx: i,
                route,
                remaining_mb: r.mb,
                rate: 0.0,
                last_update: r.start,
                latency: topo.route_latency(r.from, r.to)?,
                done_ev: None,
            });
        }
    }
    if flows.is_empty() {
        return Ok((results, 0));
    }
    flows.sort_unstable_by_key(|f| (f.last_update, f.req_idx));

    let n_links = topo.links().len();
    let mut q: EventQueue<SimTime, NetEv> = EventQueue::with_capacity(n_links + 16);

    // Availability-change chains are armed lazily, per link, only while
    // the link carries at least one flow: a change on an idle link
    // cannot affect any rate, so it is neither scheduled nor counted.
    let mut avail_ev: Vec<Option<simcore::EventId>> = vec![None; n_links];

    // Per-link list of active crossing flows; lengths are the share
    // denominators. `share[l]` is link l's equal share as of the last
    // timestamp it was dirty. That is exact while the link carries a
    // flow: its flow count changes only by marking it dirty, and its
    // capacity only at an armed availability event, which marks it too.
    let mut link_flows: Vec<Vec<usize>> = vec![Vec::new(); n_links];
    let mut share: Vec<f64> = vec![0.0; n_links];
    let mut dirty = DirtySet::with_universe(n_links);

    let mut live_flows = flows.len();
    // Flows before the cursor have been admitted.
    let mut cursor = 0;
    let mut ev_count: u64 = 0;
    let mut finishes: Vec<usize> = Vec::new();
    let mut avails: Vec<usize> = Vec::new();
    let mut affected: Vec<usize> = Vec::new();

    while live_flows > 0 {
        let next_start = flows.get(cursor).map(|f| f.last_update);
        let Some(t) = q.peek_time().into_iter().chain(next_start).min() else {
            // Nothing can ever happen again but flows are unfinished:
            // they are stalled on dead links forever. (Finished flows
            // hold zero remaining work.)
            let stuck: f64 = flows.iter().map(|f| f.remaining_mb).sum();
            return Err(SimError::NeverCompletes { work: stuck });
        };

        // Drain the whole batch at this timestamp and take the arrivals
        // starting at it, then process in the reference order: retire
        // finishes, apply availability steps, admit arrivals, and only
        // then recompute dirty shares once.
        finishes.clear();
        avails.clear();
        while q.peek_time() == Some(t) {
            let Some((_, _, ev)) = q.pop() else { break };
            ev_count += 1;
            match ev {
                NetEv::Finish(fi) => finishes.push(fi),
                NetEv::Avail(li) => {
                    // The drained handle is dead; clear it so the
                    // finish/arrival handlers below re-arm correctly.
                    avail_ev[li] = None;
                    avails.push(li);
                }
            }
        }
        let first = cursor;
        while flows.get(cursor).is_some_and(|f| f.last_update == t) {
            cursor += 1;
        }
        let arrivals = first..cursor;
        ev_count += arrivals.len() as u64;
        finishes.sort_unstable_by_key(|&fi| flows[fi].req_idx);
        avails.sort_unstable();

        for &fi in &finishes {
            live_flows -= 1;
            flows[fi].done_ev = None;
            flows[fi].remaining_mb = 0.0;
            for &l in flows[fi].route {
                let li = l.0;
                if let Some(pos) = link_flows[li].iter().position(|&x| x == fi) {
                    link_flows[li].remove(pos);
                }
                if link_flows[li].is_empty() {
                    // Last flow gone: disarm the availability chain.
                    if let Some(id) = avail_ev[li].take() {
                        q.cancel(id);
                    }
                }
                dirty.insert(li);
            }
            let latency = flows[fi].latency;
            let delivered = t + latency;
            let r = &reqs[flows[fi].req_idx];
            if sink.enabled() {
                // Mean achieved bandwidth over the nominal bottleneck:
                // 1.0 means the flow had the route to itself for its
                // whole lifetime.
                let elapsed = (delivered.saturating_sub(r.start) - latency).as_secs_f64();
                let mut nominal = f64::INFINITY;
                for l in flows[fi].route {
                    nominal = nominal.min(topo.link(*l)?.spec.bandwidth_mbps);
                }
                let share = if elapsed > 0.0 && nominal.is_finite() && nominal > 0.0 {
                    (r.mb / elapsed / nominal).min(1.0)
                } else {
                    1.0
                };
                sink.record(TraceEvent::TransferFinish {
                    from: r.from,
                    to: r.to,
                    at: delivered,
                    mb: r.mb,
                    contention_share: share,
                });
            }
            results[flows[fi].req_idx].delivered = delivered;
        }

        for &li in &avails {
            dirty.insert(li);
            if !link_flows[li].is_empty() {
                if let Some(change) = topo.link(LinkId(li))?.availability().next_change_after(t) {
                    avail_ev[li] = Some(q.schedule(change, NetEv::Avail(li)));
                }
            }
        }

        for fi in arrivals {
            if sink.enabled() {
                let r = &reqs[flows[fi].req_idx];
                sink.record(TraceEvent::TransferStart {
                    from: r.from,
                    to: r.to,
                    at: t,
                    mb: r.mb,
                });
            }
            for &l in flows[fi].route {
                let li = l.0;
                link_flows[li].push(fi);
                if link_flows[li].len() == 1 && avail_ev[li].is_none() {
                    // First flow on the link: arm its chain.
                    if let Some(change) = topo.link(l)?.availability().next_change_after(t) {
                        avail_ev[li] = Some(q.schedule(change, NetEv::Avail(li)));
                    }
                }
                dirty.insert(li);
            }
        }

        // Refresh the dirty links' shares, then for every flow crossing
        // one: settle progress, take the equal-share rate, move the
        // completion event.
        let touched = dirty.drain_sorted();
        affected.clear();
        for &li in &touched {
            let n = link_flows[li].len();
            if n > 0 {
                share[li] = topo.link(LinkId(li))?.capacity_at(t) / n as f64;
                affected.extend_from_slice(&link_flows[li]);
            }
        }
        affected.sort_unstable();
        affected.dedup();
        for &fi in &affected {
            let f = &mut flows[fi];
            let dt = (t - f.last_update).as_secs_f64();
            if dt > 0.0 && f.rate > 0.0 {
                f.remaining_mb = (f.remaining_mb - f.rate * dt).max(0.0);
            }
            f.last_update = t;
            let rate = f
                .route
                .iter()
                .fold(f64::INFINITY, |rate, l| rate.min(share[l.0]));
            f.rate = rate;
            let done = if rate > 0.0 {
                let d = if f.remaining_mb <= EPS_MB {
                    // Within tolerance of done already: finish at this
                    // very timestamp, like the reference's EPS retire.
                    SimTime::ZERO
                } else {
                    SimTime::from_secs_f64(f.remaining_mb / rate)
                };
                // A completion beyond the representable horizon behaves
                // like no completion at all (rate ~ 0).
                t.checked_add(d).filter(|&at| at < SimTime::MAX)
            } else {
                None
            };
            match (f.done_ev, done) {
                (Some(id), Some(at)) => {
                    if q.time_of(id) != Some(at) {
                        q.reschedule(id, at);
                    }
                }
                (Some(id), None) => {
                    q.cancel(id);
                    f.done_ev = None;
                }
                (None, Some(at)) => {
                    f.done_ev = Some(q.schedule(at, NetEv::Finish(fi)));
                }
                (None, None) => {}
            }
        }
    }

    Ok((results, ev_count))
}

/// The pre-`simcore` full-recompute engine, kept as the oracle and the
/// naive baseline of the events/sec benchmark: every event rebuilds all
/// per-link flow counts and recomputes every active flow's share.
/// Returns results plus an event count tallied per cause — one per flow
/// arrival, one per flow completion, one per availability change point
/// landing on a link that carries at least one flow — the same metric
/// the incremental engine's queue pops measure. (It used to count loop
/// iterations, which coalesce same-timestamp events and include idle
/// no-ops, making the two engines' counts incomparable.) The counts
/// still differ by a few when float rounding shifts a completion across
/// an availability change point; the bench asserts a small tolerance
/// rather than equality. Semantically equivalent to
/// [`simulate_transfers_counting`]; numerically equal on every testbed
/// scenario (progress is integrated in differently-grouped chunks, so
/// adversarial float inputs may diverge in the last ulp).
pub fn simulate_transfers_reference(
    topo: &Topology,
    reqs: &[TransferReq],
    sink: &mut dyn crate::simtrace::EventSink,
) -> Result<(Vec<TransferResult>, u64), SimError> {
    use crate::simtrace::TraceEvent;
    let mut results: Vec<Option<TransferResult>> = vec![None; reqs.len()];

    // Resolve routes up front and dispatch trivial local transfers.
    let mut pending: Vec<(usize, ActiveFlow<'_>, SimTime)> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let route = topo.route(r.from, r.to)?;
        if route.is_empty() || r.mb <= 0.0 {
            results[i] = Some(TransferResult {
                tag: r.tag,
                delivered: r.start,
            });
            continue;
        }
        let latency = topo.route_latency(r.from, r.to)?;
        pending.push((
            i,
            ActiveFlow {
                tag: r.tag,
                route,
                remaining_mb: r.mb,
                latency,
            },
            r.start,
        ));
    }
    // Earliest arrivals first; stable on request order.
    pending.sort_by_key(|&(i, _, start)| (start, i));

    // Collect availability change points for every link in use.
    let mut used_links: Vec<LinkId> = pending
        .iter()
        .flat_map(|(_, f, _)| f.route.iter().copied())
        .collect();
    used_links.sort();
    used_links.dedup();

    let mut active: Vec<(usize, ActiveFlow<'_>)> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = pending.first().map(|&(_, _, s)| s).unwrap_or(SimTime::ZERO);
    let mut ev_count: u64 = 0;
    // Scratch: upcoming availability change per used link, per step.
    let mut changes: Vec<(LinkId, SimTime)> = Vec::new();

    const EPS_MB: f64 = 1e-12;

    while !active.is_empty() || next_arrival < pending.len() {
        // Admit arrivals at the current time.
        while next_arrival < pending.len() && pending[next_arrival].2 <= now {
            ev_count += 1;
            let (i, f, start) = &pending[next_arrival];
            if sink.enabled() {
                sink.record(TraceEvent::TransferStart {
                    from: reqs[*i].from,
                    to: reqs[*i].to,
                    at: *start,
                    mb: reqs[*i].mb,
                });
            }
            active.push((*i, f.clone()));
            next_arrival += 1;
        }
        if active.is_empty() {
            // Jump to the next arrival.
            now = pending[next_arrival].2;
            continue;
        }

        // Per-link flow counts at this instant.
        let mut counts: BTreeMap<LinkId, usize> = BTreeMap::new();
        for (_, f) in &active {
            for l in f.route {
                *counts.entry(*l).or_insert(0) += 1;
            }
        }

        // Per-flow rates (MB/s) under equal sharing.
        let mut rates: Vec<f64> = Vec::with_capacity(active.len());
        for (_, f) in &active {
            let mut rate = f64::INFINITY;
            for l in f.route {
                let link = topo.link(*l)?;
                let share = link.capacity_at(now) / counts[l] as f64;
                rate = rate.min(share);
            }
            rates.push(rate);
        }

        // Next event: earliest of (a) flow completion at current rates,
        // (b) link availability change, (c) next arrival.
        let mut next_event = SimTime::MAX;
        for ((_, f), &rate) in active.iter().zip(&rates) {
            if rate > 0.0 {
                let done = now + SimTime::from_secs_f64(f.remaining_mb / rate);
                next_event = next_event.min(done);
            }
        }
        changes.clear();
        for l in &used_links {
            if let Some(change) = topo.link(*l)?.availability().next_change_after(now) {
                next_event = next_event.min(change);
                changes.push((*l, change));
            }
        }
        if next_arrival < pending.len() {
            next_event = next_event.min(pending[next_arrival].2);
        }
        if next_event == SimTime::MAX {
            // Every active flow is stalled at rate 0 with no future
            // availability change and no arrivals: they never finish.
            let stuck: f64 = active.iter().map(|(_, f)| f.remaining_mb).sum();
            return Err(SimError::NeverCompletes { work: stuck });
        }

        // Count availability change points landing exactly at this
        // step on links that carry at least one flow — the set the
        // incremental engine's lazily-armed chains pop events for.
        for &(l, change) in &changes {
            if change == next_event && counts.get(&l).copied().unwrap_or(0) > 0 {
                ev_count += 1;
            }
        }

        // Advance all flows to `next_event`.
        let dt = (next_event - now).as_secs_f64();
        for ((_, f), &rate) in active.iter_mut().zip(&rates) {
            f.remaining_mb = (f.remaining_mb - rate * dt).max(0.0);
        }
        now = next_event;

        // Retire completed flows, in request order at equal timestamps
        // (the same tie-break the incremental engine uses).
        let mut finished: Vec<(usize, ActiveFlow<'_>)> = Vec::new();
        let mut i = 0;
        while i < active.len() {
            if active[i].1.remaining_mb <= EPS_MB {
                finished.push(active.swap_remove(i));
            } else {
                i += 1;
            }
        }
        finished.sort_by_key(|&(idx, _)| idx);
        for (idx, f) in finished {
            ev_count += 1;
            let delivered = now + f.latency;
            if sink.enabled() {
                // Mean achieved bandwidth over the nominal
                // bottleneck: 1.0 means the flow had the route to
                // itself for its whole lifetime.
                let r = &reqs[idx];
                let elapsed = (delivered.saturating_sub(r.start) - f.latency).as_secs_f64();
                let mut nominal = f64::INFINITY;
                for l in f.route {
                    nominal = nominal.min(topo.link(*l)?.spec.bandwidth_mbps);
                }
                let share = if elapsed > 0.0 && nominal.is_finite() && nominal > 0.0 {
                    (r.mb / elapsed / nominal).min(1.0)
                } else {
                    1.0
                };
                sink.record(TraceEvent::TransferFinish {
                    from: r.from,
                    to: r.to,
                    at: delivered,
                    mb: r.mb,
                    contention_share: share,
                });
            }
            results[idx] = Some(TransferResult {
                tag: f.tag,
                delivered,
            });
        }
    }

    let results = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| SimError::Invalid(format!("transfer {i} never resolved"))))
        .collect::<Result<_, _>>()?;
    Ok((results, ev_count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Two hosts on one dedicated 10 MB/s segment with 1 ms latency.
    fn two_host_topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::from_millis(1)));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
        b.instantiate(s(10_000.0), 0).unwrap()
    }

    #[test]
    fn single_transfer_takes_size_over_bandwidth_plus_latency() {
        let topo = two_host_topo();
        let res = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 100.0,
                start: SimTime::ZERO,
                tag: 0,
            }],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        // 100 MB at 10 MB/s = 10 s, plus 1 ms latency.
        assert_eq!(res[0].delivered, s(10.0) + SimTime::from_millis(1));
    }

    #[test]
    fn concurrent_transfers_share_the_medium() {
        let topo = two_host_topo();
        let reqs: Vec<TransferReq> = (0..2)
            .map(|i| TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 50.0,
                start: SimTime::ZERO,
                tag: i,
            })
            .collect();
        let res = simulate_transfers(&topo, &reqs, &mut crate::simtrace::NoopSink).unwrap();
        // Two equal flows on a 10 MB/s link each get 5 MB/s: 10 s each.
        for r in &res {
            assert_eq!(r.delivered, s(10.0) + SimTime::from_millis(1));
        }
    }

    #[test]
    fn staggered_transfer_speeds_up_after_first_finishes() {
        let topo = two_host_topo();
        let res = simulate_transfers(
            &topo,
            &[
                TransferReq {
                    from: HostId(0),
                    to: HostId(1),
                    mb: 50.0,
                    start: SimTime::ZERO,
                    tag: 0,
                },
                TransferReq {
                    from: HostId(0),
                    to: HostId(1),
                    mb: 100.0,
                    start: SimTime::ZERO,
                    tag: 1,
                },
            ],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        // Shared at 5 MB/s until flow 0 finishes at t=10 (50 MB each
        // done). Flow 1 then has 50 MB left at 10 MB/s: done at t=15.
        assert_eq!(res[0].delivered, s(10.0) + SimTime::from_millis(1));
        assert_eq!(res[1].delivered, s(15.0) + SimTime::from_millis(1));
    }

    #[test]
    fn same_host_transfer_is_instant() {
        let topo = two_host_topo();
        let res = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(0),
                mb: 1e9,
                start: s(5.0),
                tag: 7,
            }],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        assert_eq!(res[0].delivered, s(5.0));
        assert_eq!(res[0].tag, 7);
    }

    #[test]
    fn background_load_halves_capacity() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::ZERO,
            LoadModel::Constant(0.5),
        ));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
        let topo = b.instantiate(s(1000.0), 0).unwrap();
        let res = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 50.0,
                start: SimTime::ZERO,
                tag: 0,
            }],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        // 50 MB at 5 MB/s usable = 10 s.
        assert_eq!(res[0].delivered, s(10.0));
    }

    #[test]
    fn transfer_stalls_through_outage() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::ZERO,
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(2.0), 0.0), (s(7.0), 1.0)]),
        ));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
        let topo = b.instantiate(s(1000.0), 0).unwrap();
        let res = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 40.0,
                start: SimTime::ZERO,
                tag: 0,
            }],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        // 20 MB in [0,2], stalled in [2,7], remaining 20 MB in [7,9].
        assert_eq!(res[0].delivered, s(9.0));
    }

    #[test]
    fn permanently_dead_link_errors() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::ZERO,
            LoadModel::Constant(0.0),
        ));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
        let topo = b.instantiate(s(1000.0), 0).unwrap();
        let err = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 1.0,
                start: SimTime::ZERO,
                tag: 0,
            }],
            &mut crate::simtrace::NoopSink,
        );
        assert!(matches!(err, Err(SimError::NeverCompletes { .. })));
    }

    #[test]
    fn cross_segment_route_crosses_gateway() {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::from_millis(1)));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::from_millis(1)));
        let gw = b.add_link(LinkSpec::dedicated("gw", 2.0, SimTime::from_millis(5)));
        b.add_route(sa, sb, vec![gw]).unwrap();
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, sb));
        let topo = b.instantiate(s(1000.0), 0).unwrap();

        let route = topo.route(HostId(0), HostId(1)).unwrap();
        assert_eq!(route.len(), 3);
        assert_eq!(
            topo.route_latency(HostId(0), HostId(1)).unwrap(),
            SimTime::from_millis(7)
        );

        let res = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 20.0,
                start: SimTime::ZERO,
                tag: 0,
            }],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        // Bottleneck is the 2 MB/s gateway: 10 s + 7 ms latency.
        assert_eq!(res[0].delivered, s(10.0) + SimTime::from_millis(7));
    }

    #[test]
    fn reverse_route_is_registered_automatically() {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::ZERO));
        let gw = b.add_link(LinkSpec::dedicated("gw", 2.0, SimTime::ZERO));
        b.add_route(sa, sb, vec![gw]).unwrap();
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, sb));
        let topo = b.instantiate(s(1.0), 0).unwrap();
        assert!(topo.route(HostId(1), HostId(0)).is_ok());
    }

    #[test]
    fn connect_derives_multi_hop_routes() {
        // A chain of three segments joined by two connect() edges:
        // routes across the chain appear without explicit add_route.
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::from_millis(1)));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::from_millis(1)));
        let sc = b.add_segment(LinkSpec::dedicated("segC", 10.0, SimTime::from_millis(1)));
        let ab = b.connect(
            sa,
            sb,
            LinkSpec::dedicated("ab", 2.0, SimTime::from_millis(5)),
        );
        let bc = b.connect(
            sb,
            sc,
            LinkSpec::dedicated("bc", 2.0, SimTime::from_millis(5)),
        );
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("c", 10.0, 64.0, sc));
        let topo = b.instantiate(s(100.0), 0).unwrap();
        let route = topo.route(HostId(0), HostId(1)).unwrap();
        // segA link + ab + bc + segC link.
        assert_eq!(route.len(), 4);
        assert!(route.contains(&ab));
        assert!(route.contains(&bc));
        // And the reverse direction works too.
        assert!(topo.route(HostId(1), HostId(0)).is_ok());
    }

    #[test]
    fn explicit_routes_beat_derived_ones() {
        // Both a direct connect edge and an explicit route through an
        // express link exist: the explicit route must win.
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::ZERO));
        let _slow = b.connect(sa, sb, LinkSpec::dedicated("slow", 0.1, SimTime::ZERO));
        let express = b.add_link(LinkSpec::dedicated("express", 50.0, SimTime::ZERO));
        b.add_route(sa, sb, vec![express]).unwrap();
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, sb));
        let topo = b.instantiate(s(100.0), 0).unwrap();
        let route = topo.route(HostId(0), HostId(1)).unwrap();
        assert!(route.contains(&express), "route {route:?}");
    }

    #[test]
    fn disconnected_components_still_error() {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::ZERO));
        let sc = b.add_segment(LinkSpec::dedicated("island", 10.0, SimTime::ZERO));
        b.connect(sa, sb, LinkSpec::dedicated("ab", 1.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("island-host", 10.0, 64.0, sc));
        let topo = b.instantiate(s(100.0), 0).unwrap();
        assert!(matches!(
            topo.route(HostId(0), HostId(1)),
            Err(SimError::NoRoute { .. })
        ));
    }

    #[test]
    fn missing_route_is_an_error() {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, sb));
        let topo = b.instantiate(s(1.0), 0).unwrap();
        assert!(matches!(
            topo.route(HostId(0), HostId(1)),
            Err(SimError::NoRoute { .. })
        ));
    }

    #[test]
    fn transfer_estimate_matches_uncontended_simulation() {
        let topo = two_host_topo();
        let est = topo
            .transfer_estimate(HostId(0), HostId(1), 100.0, SimTime::ZERO)
            .unwrap();
        let sim = simulate_transfers(
            &topo,
            &[TransferReq {
                from: HostId(0),
                to: HostId(1),
                mb: 100.0,
                start: SimTime::ZERO,
                tag: 0,
            }],
            &mut crate::simtrace::NoopSink,
        )
        .unwrap();
        assert_eq!(est, sim[0].delivered);
    }

    #[test]
    fn unknown_host_is_an_error() {
        let topo = two_host_topo();
        assert!(matches!(
            topo.route(HostId(0), HostId(99)),
            Err(SimError::UnknownHost(99))
        ));
    }

    #[test]
    fn zero_bandwidth_link_rejected_at_build() {
        let mut b = TopologyBuilder::new();
        b.add_segment(LinkSpec::dedicated("bad", 0.0, SimTime::ZERO));
        assert!(b.instantiate(s(1.0), 0).is_err());
    }

    /// A mixed scenario: shared segments, a gateway, background load,
    /// staggered starts — stress for the incremental engine.
    fn busy_topo_and_reqs() -> (Topology, Vec<TransferReq>) {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::shared(
            "segA",
            10.0,
            SimTime::from_millis(1),
            LoadModel::Periodic {
                high: 1.0,
                low: 0.4,
                half_period: s(2.0),
                phase: SimTime::ZERO,
            },
        ));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 8.0, SimTime::from_millis(2)));
        b.connect(
            sa,
            sb,
            LinkSpec::shared(
                "gw",
                3.0,
                SimTime::from_millis(5),
                LoadModel::Periodic {
                    high: 1.0,
                    low: 0.5,
                    half_period: s(3.5),
                    phase: s(1.0),
                },
            ),
        );
        for i in 0..3 {
            b.add_host(HostSpec::dedicated(&format!("a{i}"), 10.0, 64.0, sa));
            b.add_host(HostSpec::dedicated(&format!("b{i}"), 10.0, 64.0, sb));
        }
        let topo = b.instantiate(s(100_000.0), 42).unwrap();
        let mut reqs = Vec::new();
        for k in 0..24usize {
            reqs.push(TransferReq {
                from: HostId(k % 6),
                to: HostId((k * 5 + 1) % 6),
                mb: 3.0 + (k % 7) as f64,
                start: s(0.5 * (k % 9) as f64),
                tag: k,
            });
        }
        (topo, reqs)
    }

    #[test]
    fn incremental_engine_matches_reference() {
        let (topo, reqs) = busy_topo_and_reqs();
        let mut sink_a = crate::simtrace::VecSink::new();
        let mut sink_b = crate::simtrace::VecSink::new();
        let (inc, _) = simulate_transfers_counting(&topo, &reqs, &mut sink_a).unwrap();
        let (refr, _) = simulate_transfers_reference(&topo, &reqs, &mut sink_b).unwrap();
        assert_eq!(inc, refr);
        // Same event stream, byte for byte: same kinds, times, payloads.
        let a: Vec<String> = sink_a.events.iter().map(|e| e.to_json()).collect();
        let b: Vec<String> = sink_b.events.iter().map(|e| e.to_json()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_engine_counts_fewer_or_equal_touches_than_reference() {
        // Not a perf assertion (that's the bench); just that both count.
        let (topo, reqs) = busy_topo_and_reqs();
        let mut n = crate::simtrace::NoopSink;
        let (_, ev_inc) = simulate_transfers_counting(&topo, &reqs, &mut n).unwrap();
        let (_, ev_ref) = simulate_transfers_reference(&topo, &reqs, &mut n).unwrap();
        assert!(ev_inc > 0 && ev_ref > 0);
    }

    #[test]
    fn self_route_is_rejected() {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::ZERO));
        let gw = b.add_link(LinkSpec::dedicated("gw", 1.0, SimTime::ZERO));
        assert!(matches!(
            b.add_route(sa, sa, vec![gw]),
            Err(SimError::SelfRoute { segment }) if segment == sa.0
        ));
    }

    #[test]
    fn duplicate_route_is_rejected_in_both_directions() {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::ZERO));
        let gw = b.add_link(LinkSpec::dedicated("gw", 1.0, SimTime::ZERO));
        let express = b.add_link(LinkSpec::dedicated("express", 50.0, SimTime::ZERO));
        b.add_route(sa, sb, vec![gw]).unwrap();
        // Same direction and the auto-registered reverse both refuse.
        assert!(matches!(
            b.add_route(sa, sb, vec![express]),
            Err(SimError::DuplicateRoute { .. })
        ));
        assert!(matches!(
            b.add_route(sb, sa, vec![express]),
            Err(SimError::DuplicateRoute { .. })
        ));
        // The original route is untouched.
        assert_eq!(b.routes.via(sa, sb), Some(&[gw][..]));
    }

    #[test]
    fn route_matches_the_uncached_table() {
        let (topo, _) = busy_topo_and_reqs();
        for a in 0..topo.hosts().len() {
            for b in 0..topo.hosts().len() {
                let r = topo.route(HostId(a), HostId(b)).unwrap();
                let un = topo.route_uncached(HostId(a), HostId(b)).unwrap();
                assert_eq!(r, un);
            }
        }
    }

    #[test]
    fn engines_count_the_same_events_on_the_busy_testbed() {
        let (topo, reqs) = busy_topo_and_reqs();
        let mut n = crate::simtrace::NoopSink;
        let (_, ev_inc) = simulate_transfers_counting(&topo, &reqs, &mut n).unwrap();
        let (_, ev_ref) = simulate_transfers_reference(&topo, &reqs, &mut n).unwrap();
        assert_eq!(
            ev_inc, ev_ref,
            "engines disagree on the unified event metric"
        );
    }

    /// 64-bit FNV-1a over an engine run: the event count, then each
    /// result's tag and delivered microseconds.
    fn engine_digest(results: &[TransferResult], events: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = std::iter::once(events).chain(
            results
                .iter()
                .flat_map(|r| [r.tag as u64, r.delivered.as_micros()]),
        );
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn busy_testbed_output_is_pinned() {
        let (topo, reqs) = busy_topo_and_reqs();
        let (res, events) =
            simulate_transfers_counting(&topo, &reqs, &mut crate::simtrace::NoopSink).unwrap();
        assert_eq!(
            (engine_digest(&res, events), events),
            (0x7c14_9260_35f4_6896, 95),
            "the incremental engine's output moved"
        );
    }

    /// Run both engines; require delivered times within ±2 µs and equal
    /// event counts, and return the incremental engine's results.
    fn engines_agree(topo: &Topology, reqs: &[TransferReq]) -> Vec<TransferResult> {
        let mut n = crate::simtrace::NoopSink;
        let (inc, ev_inc) = simulate_transfers_counting(topo, reqs, &mut n).unwrap();
        let (refr, ev_ref) = simulate_transfers_reference(topo, reqs, &mut n).unwrap();
        assert_eq!(ev_inc, ev_ref, "event counts");
        for (a, b) in inc.iter().zip(&refr) {
            assert_eq!(a.tag, b.tag);
            let (x, y) = (a.delivered.as_micros(), b.delivered.as_micros());
            assert!(x.abs_diff(y) <= 2, "tag {}: {x} µs vs {y} µs", a.tag);
        }
        inc
    }

    fn req(from: usize, to: usize, mb: f64, start: SimTime, tag: usize) -> TransferReq {
        TransferReq {
            from: HostId(from),
            to: HostId(to),
            mb,
            start,
            tag,
        }
    }

    fn delivered_us(res: &[TransferResult]) -> Vec<u64> {
        res.iter().map(|r| r.delivered.as_micros()).collect()
    }

    #[test]
    fn arrivals_coinciding_with_a_finish_and_an_availability_edge() {
        // One 10 MB/s segment whose capacity halves at t = 5 s. Flow 0
        // (50 MB alone) finishes exactly at 5 s, when flows 1 and 2
        // arrive on the same link: all three kinds of event share one
        // instant.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::from_millis(1),
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(5.0), 0.5)]),
        ));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
        let topo = b.instantiate(s(1000.0), 0).unwrap();
        let reqs = [
            req(0, 1, 50.0, s(0.0), 0),
            req(1, 0, 5.0, s(5.0), 1),
            req(0, 1, 10.0, s(5.0), 2),
        ];
        // After 5 s the link gives 5 MB/s, 2.5 each: flow 1 is done at
        // 7 s, then flow 2 has 5 MB left at 5 MB/s: done at 8 s.
        assert_eq!(
            delivered_us(&engines_agree(&topo, &reqs)),
            [5_001_000, 7_001_000, 8_001_000]
        );
    }

    #[test]
    fn several_flows_finish_at_one_instant_on_one_link() {
        // Four flows share a 10 MB/s segment at 2.5 MB/s each; the three
        // 10 MB ones finish together at 4 s, and the 20 MB one then has
        // the link to itself for its last 10 MB.
        let topo = two_host_topo();
        let reqs = [
            req(0, 1, 20.0, s(0.0), 0),
            req(0, 1, 10.0, s(0.0), 1),
            req(1, 0, 10.0, s(0.0), 2),
            req(0, 1, 10.0, s(0.0), 3),
        ];
        assert_eq!(
            delivered_us(&engines_agree(&topo, &reqs)),
            [5_001_000, 4_001_000, 4_001_000, 4_001_000]
        );
    }

    #[test]
    fn a_route_crossing_one_link_twice_counts_it_twice() {
        // The segA-segB route lists the 2 MB/s gateway twice, so a lone
        // cross flow holds two of its shares: 1 MB/s.
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, SimTime::from_millis(1)));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, SimTime::from_millis(1)));
        let gw = b.add_link(LinkSpec::dedicated("gw", 2.0, SimTime::from_millis(5)));
        b.add_route(sa, sb, vec![gw, gw]).unwrap();
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, sb));
        let topo = b.instantiate(s(1000.0), 0).unwrap();
        assert_eq!(topo.route_latency(HostId(0), HostId(1)).unwrap(), s(0.012));
        let reqs = [
            // Alone at 1 MB/s for 2 s; with flow 1 the gateway carries
            // four entries, 0.5 MB/s each, until flow 1 is done at 8 s;
            // the last 3 MB go alone at 1 MB/s again.
            req(0, 1, 8.0, s(0.0), 0),
            req(1, 0, 3.0, s(2.0), 1),
            // Arrives after both have left: if a finish had removed
            // only one of a flow's two gateway entries, this flow would
            // see three shares instead of two.
            req(0, 1, 4.0, s(20.0), 2),
        ];
        assert_eq!(
            delivered_us(&engines_agree(&topo, &reqs)),
            [11_012_000, 8_012_000, 24_012_000]
        );
    }

    #[test]
    fn a_flow_within_eps_of_done_finishes_when_its_rate_is_recomputed() {
        // 1.1 MB at 10 MB/s: in f64 the finish lands a hair above
        // 110 000 µs, so alone the flow is delivered a microsecond later
        // (plus the 1 ms latency). A second flow arriving at 110 000 µs
        // recomputes its rate while under `EPS_MB` is left, and it
        // finishes right then.
        let topo = two_host_topo();
        let alone = [req(0, 1, 1.1, SimTime::ZERO, 0)];
        assert_eq!(delivered_us(&engines_agree(&topo, &alone)), [111_001]);
        let reqs = [
            req(0, 1, 1.1, SimTime::ZERO, 0),
            req(1, 0, 1.0, SimTime::from_micros(110_000), 1),
        ];
        assert_eq!(
            delivered_us(&engines_agree(&topo, &reqs)),
            [111_000, 211_000]
        );
    }

    #[test]
    fn instantiate_rejects_host_on_unknown_segment() {
        let mut b = TopologyBuilder::new();
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, SegmentId(5)));
        assert!(matches!(
            b.instantiate(s(1.0), 0),
            Err(SimError::UnknownSegment(5))
        ));
    }
}
