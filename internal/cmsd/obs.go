package cmsd

// Observability wiring for a Node: frame collection for the
// summary-monitoring stream and the admin/status HTTP endpoint.

import (
	"net/http"

	"scalla/internal/obs"
	"scalla/internal/transport"
)

// Frame assembles the node's current summary-monitoring frame.
// Redirector roles report cache/respq/cluster/resolution state; server
// roles report their data plane. Both report transport counters when
// the node runs over a transport.CountingNetwork.
func (n *Node) Frame() obs.Frame {
	f := obs.Frame{Node: n.cfg.Name, Role: n.cfg.Role.String()}
	if c := n.core; c != nil {
		f.Cache = c.Cache().Summary()
		qs := c.Queue().Stats()
		f.RespQ = &obs.RespQSummary{
			Depth: qs.InUse, Entries: qs.Entries, Joins: qs.Joins,
			Released: qs.Released, Expired: qs.Expired, Full: qs.Full,
		}
		ts := c.Table().Summary()
		f.Cluster = &obs.ClusterSummary{
			Members: ts.Members, Online: ts.Online, Offline: ts.Offline,
			ParentsUp: n.ParentsUp(),
		}
		f.Ops, f.Counters = obs.OpsFromRegistry(c.Metrics())
	}
	if d := n.data; d != nil {
		ds := d.Stats()
		f.Data = &obs.DataSummary{
			OpenHandles: ds.OpenHandles, Inflight: ds.Inflight,
			Opens: ds.Opens, Reads: ds.Reads, Writes: ds.Writes,
			BytesRead: ds.BytesRead, BytesWritten: ds.BytesWritten,
			Staged: ds.Staged,
		}
		if st := d.Store(); st != nil {
			ss := st.Stats()
			meanUS := int64(0)
			if ss.Fsyncs > 0 {
				meanUS = ss.FsyncNanos / ss.Fsyncs / 1000
			}
			f.Store = &obs.StoreSummary{
				Backend: ss.Backend, Files: ss.Files, Offline: ss.Offline,
				StageQ: ss.Staging, UsedBytes: ss.UsedBytes,
				DirtyBytes: ss.DirtyBytes, Fsyncs: ss.Fsyncs,
				FsyncMeanUS: meanUS, FsyncMaxUS: ss.FsyncMaxNanos / 1000,
				StagedIn: ss.StagedIn, RecoveredAtUp: ss.Recovered,
			}
		}
		f.Cluster = &obs.ClusterSummary{ParentsUp: n.ParentsUp()}
		f.Sched = d.Sched().Summary()
	}
	if n.dataFace != nil {
		f.Sched = n.dataFace.Sched().Summary()
	}
	f.Net, f.Wire = transport.Summaries(n.cfg.Net)
	if f.Counters == nil {
		f.Counters = map[string]int64{}
	}
	f.Counters["node.queries"] = n.queries.Load()
	f.Counters["node.haves"] = n.haves.Load()
	f.Counters["node.negatives"] = n.negatives.Load()
	return f
}

// Tracer returns the node's event tracer (enable it to start recording
// spans; redirector roles share it with their Core).
func (n *Node) Tracer() *obs.Tracer { return n.cfg.Tracer }

// AdminHandler returns the node's admin/status endpoint serving
// /statusz, /metricsz, and /tracez.
func (n *Node) AdminHandler() http.Handler {
	st := obs.AdminState{Collect: n.Frame, Tracer: n.cfg.Tracer}
	if n.core != nil {
		st.Registry = n.core.Metrics()
	}
	return obs.NewHandler(st)
}
