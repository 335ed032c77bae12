package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** Algorithm 1 expressed in pure relational (Catalyst) terms.
  *
  * The set-valued matrix `T` is the relation `T(nt, src, dst)` — exactly
  * the paper's "A ∈ T[i,j]" as rows. One closure step `T ← T ∪ (T·T)` is:
  *
  * {{{
  *   T' = T ∪ π_{a, l.src, r.dst}(
  *          T l ⋈_{l.dst = r.src} T r ⋈_{(l.nt, r.nt) = (b, c)} rules(a, b, c))
  * }}}
  *
  * followed by DISTINCT — the relational reading of the Boolean matrix
  * multiply-and-union. Iterated to fixpoint (row count stable; the
  * relation is monotone, so count equality is set equality).
  *
  * This is the engine whose output is checked against the DuckDB oracle.
  *
  * Each iteration's frame is rebuilt from the persisted rows of the last
  * ([[Materialize]]), not from `Dataset.localCheckpoint()`. A local
  * checkpoint truncates lineage but *carries over* the optimized plan's
  * statistics into the resulting `LogicalRDD`; in this iterated self-join
  * those `sizeInBytes` estimates compound multiplicatively (iteration k's
  * plan multiplies iteration k−1's several times), so the BigInt estimate
  * grows to ~3^k digits and Catalyst ends up spending minutes multiplying
  * million-digit integers (observed on the wine graph at ~12 iterations).
  * A frame over an RDD starts from default statistics every time.
  */
final class SparkDataFrameCFPQ(spark: SparkSession) extends CFPQEngine {
  override val name = "SparkDF"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    import spark.implicits._
    val termDf = spark.createDataset(grammar.term).toDF("nt", "lab")
    val rulesDf = broadcast(spark.createDataset(grammar.binary).toDF("a", "b", "c"))
    val init = graph.toDF(spark)
      .join(broadcast(termDf), col("label") === col("lab"))
      .select(col("nt"), col("src"), col("dst"))
      .distinct()
    val cached = ListBuffer.empty[RDD[Row]]
    def pin(rows: RDD[Row]): Materialize.Pinned[Row] = { cached += rows; Materialize(rows) }
    try {
      val (t, iterations) = Closure.run(pin(init.rdd))(_.count, _.release()) { p =>
        val cur = spark.createDataset(p.data)(init.encoder)
        val l = cur.as("l")
        val r = cur.as("r")
        val prod = l
          .join(rulesDf, col("l.nt") === col("b"))
          .join(r, col("l.dst") === col("r.src") && col("r.nt") === col("c"))
          .select(col("a").as("nt"), col("l.src").as("src"), col("r.dst").as("dst"))
        pin(cur.union(prod).distinct().rdd)
      }
      val rels = t.data.collect()
        .groupBy(_.getString(0))
        .map { case (nt, rows) => nt -> rows.map(r => (r.getInt(1), r.getInt(2))).toSet }
      CFPQResult(rels, iterations)
    } finally cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist(blocking = false))
  }
}
