package ppc

import "repro/internal/wal"

// TemplateLog hands the external test package the facade's per-template
// view of a WAL — the wal.Appender registerLocked attaches to a learner — so
// the allocation guard can drive learner → sink → wal.Log without a System
// around it.
func TemplateLog(log *wal.Log, template string) wal.Appender {
	return &walSink{log: log, template: template}
}
