//! The direct per-layer pass: the benchmark replays each session of one
//! client period by calling every layer's public entry point in the
//! order a session uses them, with a span around each call and the
//! counting allocator on.

use crate::setup::{fingerprint, Client, Setup, Step, Workload, FANOUT};
use crate::spans::{self_times, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use xdx_core::program::{PortRef, Program};
use xdx_core::{
    execute_source_phase, execute_target_phase, feed_batches, greedy, DataExchange, ExecOutcome,
    Location, LoopbackTransport, SourcePhase, WireFormat,
};
use xdx_delta::{db_tables, diff_snapshots, SnapshotStore};
use xdx_net::{frame_chunk_into, ChunkFrame};
use xdx_relational::{Database, Feed};
use xdx_runtime::{ReassemblyLedger, RuntimeConfig, ShippingPolicy};

/// Session ids of the direct pass, disjoint from the runtime pass's.
const DIRECT_SESSIONS: u64 = 1 << 62;
/// Sessions replayed per client at least (publish&map periods are one
/// request long).
const MIN_SESSIONS_PER_CLIENT: usize = 3;

/// Work counts gathered alongside the spans.
#[derive(Debug, Default)]
struct Counts {
    shred_bytes: u64,
    shred_rows: u64,
    publish_rows: u64,
    source_rows: u64,
    target_rows: u64,
    encode_rows: [u64; 2],
    encode_bytes: [u64; 2],
    decode_rows: [u64; 2],
    framed_bytes: u64,
    chunks_filed: u64,
    diff_rows: u64,
    patch_bytes: Vec<f64>,
    patch_steps: Vec<f64>,
    applied_rows: u64,
}

fn format_index(format: WireFormat) -> usize {
    match format {
        WireFormat::Columnar => 0,
        WireFormat::Xml => 1,
    }
}

fn encode_span(format: WireFormat) -> &'static str {
    match format {
        WireFormat::Columnar => "codec.encode.columnar",
        WireFormat::Xml => "codec.encode.xml",
    }
}

fn decode_span(format: WireFormat) -> &'static str {
    match format {
        WireFormat::Columnar => "codec.decode.columnar",
        WireFormat::Xml => "codec.decode.xml",
    }
}

/// Span name of an operator sample a layer returned.
fn op_span(op: &str, location: Location) -> &'static str {
    match (op, location) {
        ("Scan", _) => "exec.scan",
        ("Combine", Location::Source) => "exec.combine_src",
        ("Combine", _) => "exec.combine_tgt",
        ("Split", Location::Source) => "exec.split_src",
        ("Split", _) => "exec.split_tgt",
        ("Write", _) => "exec.write",
        ("Commit", _) => "exec.commit",
        ("Index", _) => "exec.index",
        _ => "exec.other",
    }
}

/// The pass over one setup.
struct Pass<'a> {
    setup: &'a Setup,
    tracer: &'a mut Tracer,
    counts: Counts,
    next_session: u64,
    /// Per-session time covered by layer spans, in ms.
    layer_sum_ms: Vec<f64>,
    ledger: ReassemblyLedger,
    snapshots: SnapshotStore,
    chunk_bytes: usize,
    batch_rows: usize,
}

fn err(what: &str) -> impl Fn(xdx_core::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl<'a> Pass<'a> {
    fn session(&mut self) -> u64 {
        self.next_session += 1;
        DIRECT_SESSIONS | self.next_session
    }

    fn record_ops(&mut self, session: u64, parent: u64, outcome: &ExecOutcome) {
        for sample in &outcome.op_samples {
            let name = op_span(sample.op, sample.location);
            self.tracer
                .record(name, session, parent, sample.started, sample.wall);
        }
    }

    /// Untimed-in-the-run setup work, replayed per source document:
    /// shredding the document and the oracle's re-publish.
    fn setup_layers(&mut self, client: &Client) -> Result<(), String> {
        let schema = &self.setup.schema;
        for (k, &doc) in client.docs.iter().enumerate() {
            let doc = &self.setup.docs[doc];
            let session = self.session();
            let root = self.tracer.open("setup", session, 0);
            let span = self.tracer.open("shred", session, root.id());
            let shredded =
                xdx_core::shred::shred(doc, schema, &client.source_frag).map_err(err("shred"))?;
            self.tracer.close(span);
            self.counts.shred_bytes += doc.len() as u64;
            self.counts.shred_rows += shredded.rows;
            drop(shredded);

            let mut db = client.sources[k].clone();
            let started = Instant::now();
            let span = self.tracer.open("publish", session, root.id());
            let published = xdx_core::publish::publish(schema, &client.source_frag, &mut db)
                .map_err(err("publish"))?;
            self.tracer.close(span);
            self.publish_children(session, span.id(), started, &published);
            self.counts.publish_rows += db.total_rows() as u64;
            self.tracer.close(root);
        }
        Ok(())
    }

    /// `Published` reports its query and tagging times; they are laid
    /// out back to back from the call's start.
    fn publish_children(
        &mut self,
        session: u64,
        parent: u64,
        started: Instant,
        published: &xdx_core::publish::Published,
    ) {
        self.tracer.record(
            "publish.query",
            session,
            parent,
            started,
            published.query_time,
        );
        self.tracer.record(
            "publish.tag",
            session,
            parent,
            started + published.query_time,
            published.tagging_time,
        );
    }

    fn plan(
        &mut self,
        session: u64,
        parent: u64,
        client: &Client,
        source: &Database,
        format: WireFormat,
        fanout: usize,
    ) -> Result<Program, String> {
        let schema = &self.setup.schema;
        let exchange = DataExchange::new(
            schema,
            client.source_frag.clone(),
            client.target_frag.clone(),
        )
        .with_wire_format(format);
        let span = self.tracer.open("plan.probe", session, parent);
        let model = exchange.probe(source).map_err(err("probe"))?;
        self.tracer.close(span);
        let span = self.tracer.open("plan.optimize", session, parent);
        let program = if fanout > 1 {
            let gen =
                xdx_core::gen::Generator::new(schema, &client.source_frag, &client.target_frag);
            let ordering = greedy::greedy_program(&gen, &model).map_err(err("greedy"))?;
            xdx_core::ksite_greedy(schema, &model, &ordering, fanout)
                .map_err(err("k-site"))?
                .0
        } else {
            exchange.plan(&model).map_err(err("plan"))?.0
        };
        self.tracer.close(span);
        Ok(program)
    }

    /// Frames, verifies and files one message for one lane, returning
    /// the reassembled bytes. `lane` keeps lanes apart in the ledger.
    fn ship_one(
        &mut self,
        session: u64,
        parent: u64,
        (lane, shipment): (u64, u64),
        message: &[u8],
    ) -> Result<Vec<u8>, String> {
        let ledger_session = session ^ (lane << 40);
        let pieces: Vec<&[u8]> = if message.is_empty() {
            vec![message]
        } else {
            message.chunks(self.chunk_bytes).collect()
        };
        let total = pieces.len();
        let span = self.tracer.open("net.frame", session, parent);
        let mut frames = Vec::with_capacity(total);
        let mut buf = Vec::new();
        for (index, piece) in pieces.iter().enumerate() {
            frame_chunk_into(&mut buf, ledger_session, shipment, index, total, piece);
            frames.push(buf.clone());
        }
        self.tracer.close(span);
        self.counts.framed_bytes += message.len() as u64;

        let span = self.tracer.open("net.verify", session, parent);
        let verified: Option<Vec<ChunkFrame>> =
            frames.iter().map(|f| ChunkFrame::decode(f)).collect();
        self.tracer.close(span);
        let verified = verified.ok_or("a framed chunk failed verification")?;

        let span = self.tracer.open("ledger.file", session, parent);
        self.ledger
            .begin_shipment(ledger_session, shipment, total, message);
        for frame in &verified {
            self.ledger.file(frame);
        }
        let assembled = self.ledger.assemble(ledger_session, shipment);
        self.tracer.close(span);
        self.ledger.forget_session(ledger_session);
        self.counts.chunks_filed += total as u64;
        assembled.ok_or_else(|| "ledger could not reassemble a shipment".into())
    }

    /// Encodes every cross-edge feed batch once, ships it to `lanes`
    /// lanes and decodes it once; returns each lane's delivered feeds.
    fn ship_feeds(
        &mut self,
        session: u64,
        parent: u64,
        phase: &SourcePhase,
        format: WireFormat,
        lanes: usize,
    ) -> Result<Vec<HashMap<PortRef, Feed>>, String> {
        let fi = format_index(format);
        let mut delivered: HashMap<PortRef, Feed> = HashMap::new();
        let mut shipment = 0u64;
        let mut body = Vec::new();
        for port in &phase.cross_ports {
            let feed = &phase.feeds[&port.port];
            for batch in feed_batches(feed, self.batch_rows) {
                let span = self.tracer.open(encode_span(format), session, parent);
                xdx_codec::encode_in_format_into(&mut body, &batch, format);
                self.tracer.close(span);
                self.counts.encode_rows[fi] += batch.len() as u64;
                self.counts.encode_bytes[fi] += body.len() as u64;

                let mut assembled = Vec::new();
                for lane in 0..lanes as u64 {
                    // Lanes ship over their own links and ledger entries.
                    assembled = self.ship_one(session, parent, (lane, shipment), &body)?;
                }
                shipment += 1;

                let span = self.tracer.open(decode_span(format), session, parent);
                let decoded =
                    xdx_codec::decode_any(&assembled).map_err(|e| format!("decode: {e}"))?;
                self.tracer.close(span);
                self.counts.decode_rows[fi] += decoded.len() as u64;

                let span = self.tracer.open("stage", session, parent);
                match delivered.get_mut(&port.port) {
                    Some(feed) => feed.rows.extend(decoded.rows),
                    None => {
                        delivered.insert(port.port, decoded);
                    }
                }
                self.tracer.close(span);
            }
        }
        // Decode once, hand every lane its own copy.
        let span = self.tracer.open("stage", session, parent);
        let mut per_lane = vec![delivered; 1];
        for _ in 1..lanes {
            per_lane.push(per_lane[0].clone());
        }
        self.tracer.close(span);
        Ok(per_lane)
    }

    /// A two-site session (`lanes == 1`) or a 1→N publish.
    fn exchange_session(
        &mut self,
        client: &Client,
        step: &Step,
        lanes: usize,
        route: &str,
    ) -> Result<(), String> {
        let schema = &self.setup.schema;
        let format = step.format.unwrap_or(WireFormat::Xml);
        let mut source = client.sources[step.source].clone();
        let session = self.session();
        let root = self.tracer.open("session", session, 0);
        let program = self.plan(session, root.id(), client, &source, format, lanes)?;

        let span = self.tracer.open("exec.source", session, root.id());
        let (phase, outcome) = execute_source_phase(
            schema,
            &client.source_frag,
            &client.target_frag,
            &program,
            &mut source,
            None,
        )
        .map_err(err("source phase"))?;
        self.tracer.close(span);
        self.record_ops(session, span.id(), &outcome);
        self.counts.source_rows += source.total_rows() as u64;

        let delivered = self.ship_feeds(session, root.id(), &phase, format, lanes)?;
        let mut targets = Vec::with_capacity(lanes);
        for feeds in &delivered {
            let mut target = Database::new("target");
            let mut outcome = ExecOutcome::default();
            let span = self.tracer.open("exec.target", session, root.id());
            execute_target_phase(
                schema,
                &client.source_frag,
                &client.target_frag,
                &program,
                &mut target,
                feeds,
                &mut outcome,
            )
            .map_err(err("target phase"))?;
            self.tracer.close(span);
            self.record_ops(session, span.id(), &outcome);
            self.counts.target_rows += target.total_rows() as u64;
            targets.push(target);
        }

        // Every lane records the same committed table set.
        let span = self
            .tracer
            .open("delta.snapshot_record", session, root.id());
        let tables = Arc::new(db_tables(&targets[0]));
        for lane in 0..lanes {
            self.snapshots
                .record_shared(&format!("{route}-{lane}"), Arc::clone(&tables));
        }
        self.tracer.close(span);
        self.tracer.close(root);
        self.close_session(root.id());

        for target in &targets {
            if fingerprint(target) != step.expected {
                return Err("a replayed target differs from its reference".into());
            }
        }
        Ok(())
    }

    /// One resync round: compute the head locally, diff it against the
    /// base snapshot, ship and apply the patch.
    fn resync_round(
        &mut self,
        client: &Client,
        step: &Step,
        base: &mut (u64, Vec<(String, Feed)>),
        route: &str,
    ) -> Result<(), String> {
        let schema = &self.setup.schema;
        let format = WireFormat::Xml;
        let mut source = client.sources[step.source].clone();
        let session = self.session();
        let root = self.tracer.open("session", session, 0);
        let program = self.plan(session, root.id(), client, &source, format, 1)?;

        let mut head = Database::new("head");
        let span = self.tracer.open("exec.local", session, root.id());
        let outcome = xdx_core::exec::execute_with_transport(
            schema,
            &client.source_frag,
            &client.target_frag,
            &program,
            &mut source,
            &mut head,
            &mut LoopbackTransport::new(format),
            None,
        )
        .map_err(err("local exchange"))?;
        self.tracer.close(span);
        self.record_ops(session, span.id(), &outcome);
        self.counts.source_rows += source.total_rows() as u64;
        self.counts.target_rows += head.total_rows() as u64;

        let (base_version, base_tables) = (base.0, &base.1);
        let span = self.tracer.open("delta.diff", session, root.id());
        let head_tables = db_tables(&head);
        let patch = diff_snapshots(base_tables, &head_tables, base_version, base_version + 1)
            .map_err(|e| format!("diff: {e}"))?;
        self.tracer.close(span);
        self.counts.diff_rows += head_tables.iter().map(|(_, f)| f.len() as u64).sum::<u64>();

        let span = self.tracer.open("delta.patch_encode", session, root.id());
        let bytes = xdx_codec::encode_patch(&patch, format);
        self.tracer.close(span);
        self.counts.patch_bytes.push(bytes.len() as f64);
        self.counts.patch_steps.push(patch.step_count() as f64);

        let assembled = self.ship_one(session, root.id(), (0, 0), &bytes)?;
        let span = self.tracer.open("delta.patch_decode", session, root.id());
        let decoded =
            xdx_codec::decode_patch(&assembled).map_err(|e| format!("patch decode: {e}"))?;
        self.tracer.close(span);

        let mut target = Database::new("target");
        let span = self.tracer.open("delta.patch_apply", session, root.id());
        xdx_relational::stage_patch(base_tables, &decoded, &mut target)
            .map_err(|e| format!("stage patch: {e}"))?;
        let rows = target.commit_staged();
        self.tracer.close(span);
        self.counts.applied_rows += rows;
        let span = self.tracer.open("exec.index", session, root.id());
        target
            .build_all_key_indexes()
            .map_err(|e| format!("index: {e}"))?;
        self.tracer.close(span);

        let span = self
            .tracer
            .open("delta.snapshot_record", session, root.id());
        let version = self.snapshots.record(route, db_tables(&target));
        self.tracer.close(span);
        self.tracer.close(root);
        self.close_session(root.id());

        if fingerprint(&target) != step.expected {
            return Err("a replayed patched target differs from its reference".into());
        }
        *base = (version, db_tables(&target));
        Ok(())
    }

    /// One publish&map run, step by step.
    fn pm_session(&mut self, client: &Client, step: &Step) -> Result<(), String> {
        let schema = &self.setup.schema;
        let mut source = client.sources[step.source].clone();
        let session = self.session();
        let root = self.tracer.open("session", session, 0);
        let started = Instant::now();
        let span = self.tracer.open("publish", session, root.id());
        let published = xdx_core::publish::publish(schema, &client.source_frag, &mut source)
            .map_err(err("publish"))?;
        self.tracer.close(span);
        self.publish_children(session, span.id(), started, &published);
        self.counts.publish_rows += source.total_rows() as u64;

        // The link's time is modelled; only the HTTP framing is CPU.
        let span = self.tracer.open("pm.ship", session, root.id());
        let message =
            xdx_net::http::Request::soap_post("/publish", "document", published.xml.into_bytes())
                .to_bytes();
        let arrived = xdx_net::http::Request::parse(&message).map_err(|e| e.to_string())?;
        let xml = String::from_utf8(arrived.body).map_err(|e| e.to_string())?;
        self.tracer.close(span);

        let span = self.tracer.open("shred", session, root.id());
        let shredded =
            xdx_core::shred::shred(&xml, schema, &client.target_frag).map_err(err("shred"))?;
        self.tracer.close(span);
        self.counts.shred_bytes += xml.len() as u64;
        self.counts.shred_rows += shredded.rows;

        let mut target = Database::new("target");
        let span = self.tracer.open("pm.load", session, root.id());
        for (frag, feed) in client.target_frag.fragments.iter().zip(shredded.feeds) {
            target
                .load(&frag.name, feed)
                .map_err(|e| format!("load: {e}"))?;
        }
        self.tracer.close(span);
        let span = self.tracer.open("pm.index", session, root.id());
        target
            .build_all_key_indexes()
            .map_err(|e| format!("index: {e}"))?;
        self.tracer.close(span);
        self.tracer.close(root);
        self.close_session(root.id());

        if fingerprint(&target) != step.expected {
            return Err("a replayed publish&map target differs from its reference".into());
        }
        Ok(())
    }

    /// Adds a finished session's layer time (its root's duration minus
    /// the root's own self time) to the per-session sums.
    fn close_session(&mut self, root_id: u64) {
        let spans = self.tracer.spans();
        let root = &spans[root_id as usize - 1];
        let own = self_times(&spans[root_id as usize - 1..])[0];
        self.layer_sum_ms
            .push((root.duration_ns() - own) as f64 / 1e6);
    }
}

/// Per-layer numbers of the direct pass, by metric name.
pub struct LayerReport {
    pub metrics: HashMap<&'static str, f64>,
    /// Median per-session layer sum, ms (a whole publish for `fanout`,
    /// whose every lane waits on the group's shared work).
    pub layer_sum_ms: f64,
}

/// Replays one period of every client through the layers.
pub fn layer_pass(setup: &Setup, tracer: &mut Tracer) -> Result<LayerReport, String> {
    let mut pass = Pass {
        setup,
        tracer,
        counts: Counts::default(),
        next_session: 0,
        layer_sum_ms: Vec::new(),
        ledger: ReassemblyLedger::new(),
        snapshots: SnapshotStore::new(),
        chunk_bytes: ShippingPolicy::default().chunk_bytes,
        batch_rows: RuntimeConfig::default().batch_rows,
    };
    crate::alloc::set_active(true);
    let result = (|| {
        for (c, client) in setup.clients.iter().enumerate() {
            pass.setup_layers(client)?;
            let route = format!("direct-{c}");
            let sessions = client.period().max(MIN_SESSIONS_PER_CLIENT);
            match setup.workload {
                Workload::Exchange | Workload::Fanout => {
                    let lanes = if setup.workload == Workload::Fanout {
                        FANOUT
                    } else {
                        1
                    };
                    for i in 0..sessions {
                        let step = &client.steps[i % client.period()];
                        pass.exchange_session(client, step, lanes, &route)?;
                    }
                }
                Workload::Resync => {
                    // Chain position 0 is what the warm-up shipped.
                    let mut start = Database::new("base");
                    let last = &client.steps[client.period() - 1];
                    let mut src = client.sources[last.source].clone();
                    DataExchange::new(
                        &setup.schema,
                        client.source_frag.clone(),
                        client.target_frag.clone(),
                    )
                    .run(
                        &mut src,
                        &mut start,
                        &mut xdx_net::Link::new(xdx_net::NetworkProfile::lan()),
                    )
                    .map_err(err("base exchange"))?;
                    let mut base = (
                        pass.snapshots.record(&route, db_tables(&start)),
                        db_tables(&start),
                    );
                    for i in 0..sessions {
                        pass.resync_round(
                            client,
                            &client.steps[i % client.period()],
                            &mut base,
                            &route,
                        )?;
                    }
                }
                Workload::PmBaseline => {
                    for i in 0..sessions {
                        pass.pm_session(client, &client.steps[i % client.period()])?;
                    }
                }
            }
        }
        Ok::<(), String>(())
    })();
    crate::alloc::set_active(false);
    result?;
    Ok(pass.report())
}

impl Pass<'_> {
    fn report(self) -> LayerReport {
        let spans = self.tracer.spans();
        let own = self_times(spans);
        let mut total: HashMap<&'static str, u64> = HashMap::new();
        let mut each: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut allocs: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for (span, self_ns) in spans.iter().zip(own) {
            if span.session & DIRECT_SESSIONS == 0 {
                continue;
            }
            *total.entry(span.name).or_default() += self_ns;
            each.entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64);
            let a = allocs.entry(span.name).or_default();
            a.0 += span.allocs;
            a.1 += span.alloc_bytes;
        }
        let c = &self.counts;
        let ns = |name: &str| total.get(name).copied().unwrap_or(0) as f64;
        let per = |value: f64, count: u64| {
            if count == 0 {
                0.0
            } else {
                value / count as f64
            }
        };
        let median_us = |name: &str| {
            each.get(name)
                .map_or(0.0, |v| crate::stats::median(v) / 1e3)
        };
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let codec_alloc_bytes: u64 = [
            "codec.encode.columnar",
            "codec.encode.xml",
            "codec.decode.columnar",
            "codec.decode.xml",
        ]
        .iter()
        .map(|n| allocs.get(n).map_or(0, |a| a.1))
        .sum();
        let rows_encoded = c.encode_rows[0] + c.encode_rows[1];
        let target_ops = |name: &str| per(ns(name), c.target_rows);
        let source_ops = |name: &str| per(ns(name), c.source_rows);
        let metrics: HashMap<&'static str, f64> = [
            ("shred.ns_per_byte", per(ns("shred"), c.shred_bytes)),
            (
                "shred.allocs_per_row",
                per(allocs.get("shred").map_or(0, |a| a.0) as f64, c.shred_rows),
            ),
            (
                "publish.query_ns_per_row",
                per(ns("publish.query"), c.publish_rows),
            ),
            (
                "publish.tag_ns_per_row",
                per(ns("publish.tag"), c.publish_rows),
            ),
            ("plan.probe_us", median_us("plan.probe")),
            ("plan.optimize_us", median_us("plan.optimize")),
            ("exec.scan_ns_per_row", source_ops("exec.scan")),
            (
                "exec.combine_src_ns_per_row",
                source_ops("exec.combine_src"),
            ),
            ("exec.split_src_ns_per_row", source_ops("exec.split_src")),
            (
                "codec.encode.columnar.ns_per_row",
                per(ns("codec.encode.columnar"), c.encode_rows[0]),
            ),
            (
                "codec.encode.xml.ns_per_row",
                per(ns("codec.encode.xml"), c.encode_rows[1]),
            ),
            (
                "codec.encode.columnar.bytes_per_row",
                per(c.encode_bytes[0] as f64, c.encode_rows[0]),
            ),
            (
                "codec.encode.xml.bytes_per_row",
                per(c.encode_bytes[1] as f64, c.encode_rows[1]),
            ),
            (
                "codec.decode.columnar.ns_per_row",
                per(ns("codec.decode.columnar"), c.decode_rows[0]),
            ),
            (
                "codec.decode.xml.ns_per_row",
                per(ns("codec.decode.xml"), c.decode_rows[1]),
            ),
            (
                "codec.alloc_bytes_per_row",
                per(codec_alloc_bytes as f64, rows_encoded),
            ),
            (
                "net.frame_ns_per_kib",
                per(ns("net.frame") * 1024.0, c.framed_bytes),
            ),
            (
                "ledger.file_ns_per_chunk",
                per(ns("ledger.file"), c.chunks_filed),
            ),
            ("exec.write_ns_per_row", target_ops("exec.write")),
            (
                "exec.combine_tgt_ns_per_row",
                target_ops("exec.combine_tgt"),
            ),
            ("exec.commit_ns_per_row", target_ops("exec.commit")),
            ("exec.index_ns_per_row", target_ops("exec.index")),
            (
                "delta.snapshot_record_us",
                median_us("delta.snapshot_record"),
            ),
            ("delta.diff_ns_per_row", per(ns("delta.diff"), c.diff_rows)),
            ("delta.patch_bytes_per_round", mean(&c.patch_bytes)),
            ("delta.patch_steps_per_round", mean(&c.patch_steps)),
            ("delta.patch_decode_us", median_us("delta.patch_decode")),
            (
                "delta.patch_apply_ns_per_row",
                per(ns("delta.patch_apply"), c.applied_rows),
            ),
        ]
        .into_iter()
        .collect();
        LayerReport {
            metrics,
            layer_sum_ms: crate::stats::median(&self.layer_sum_ms),
        }
    }
}
