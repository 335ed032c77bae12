package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** Algorithm 1 expressed in pure relational (Catalyst) terms.
  *
  * The set-valued matrix `T` is the relation `T(nt, src, dst)` — exactly
  * the paper's "A ∈ T[i,j]" as rows. `T₀` is [[MatrixInit]]'s cells (already
  * distinct), as for every other engine. One closure step `T ← T ∪ (T·T)` is:
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
  * Each iteration's rows are persisted and counted in the one job that
  * fills the cache, and the next frame is rebuilt over them, not taken from
  * `Dataset.localCheckpoint()`. A local checkpoint truncates lineage but
  * *carries over* the optimized plan's statistics into the resulting
  * `LogicalRDD`; in this iterated self-join those `sizeInBytes` estimates
  * compound multiplicatively (iteration k's plan multiplies iteration
  * k−1's several times), so the BigInt estimate grows to ~3^k digits and
  * Catalyst ends up spending minutes multiplying million-digit integers
  * (observed on the wine graph at ~12 iterations). A frame over an RDD
  * starts from default statistics every time.
  */
final class SparkDataFrameCFPQ(spark: SparkSession) extends CFPQEngine {
  import SparkDataFrameCFPQ._
  override val name = "SparkDF"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    import spark.implicits._
    val t0 = MatrixInit.cells(graph, grammar).toSeq
      .flatMap { case (nt, pairs) => pairs.map { case (s, d) => (nt, s, d) } }
      .toDF("nt", "src", "dst")
    val rules = broadcast(grammar.binary.toDF("a", "b", "c"))
    val cached = ListBuffer.empty[RDD[Row]]
    try {
      val ((t, count), iterations) = Closure.run(pin(t0.rdd, cached))(_._2, _._1.unpersist(blocking = false)) {
        case (rows, _) => pin(step(spark.createDataset(rows)(t0.encoder), rules).rdd, cached)
      }
      Relation.requireFits("T (all nonterminals)", count)
      val rels = t.collect().groupMap(_.getString(0))(r => Relation.pack(r.getInt(1), r.getInt(2)))
      CFPQResult(rels.map { case (nt, cs) => nt -> Relation(cs) }, iterations)
    } finally cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist(blocking = false))
  }
}

object SparkDataFrameCFPQ {

  /** Persists `rows` and counts them (one cell each) in the job that fills
    * the cache. `rows` go into `cached` first, so that a solve whose count
    * fails still unpersists them.
    */
  private[repro] def pin(rows: RDD[Row], cached: ListBuffer[RDD[Row]]): (RDD[Row], Long) = {
    cached += rows.persist(StorageLevel.MEMORY_AND_DISK)
    (rows, rows.count())
  }

  /** The Catalyst step: `T ∪ π_{a, l.src, r.dst}(T l ⋈ rules ⋈ T r)`, distinct. */
  private[repro] def step(t: DataFrame, rules: DataFrame): DataFrame = {
    val (l, r) = (t.as("l"), t.as("r"))
    val prod = l
      .join(rules, col("l.nt") === col("b"))
      .join(r, col("l.dst") === col("r.src") && col("r.nt") === col("c"))
      .select(col("a").as("nt"), col("l.src").as("src"), col("r.dst").as("dst"))
    t.union(prod).distinct()
  }
}
